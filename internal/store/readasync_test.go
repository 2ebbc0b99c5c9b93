package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestEngineReadAsync(t *testing.T) {
	e := NewEngine(NewMem(psTest), Options{})
	want := make([]byte, psTest)
	for i := range want {
		want[i] = byte(i * 3)
	}
	if err := e.Write(0, want); err != nil {
		t.Fatal(err)
	}
	e.Barrier()

	got := make([]byte, psTest)
	ch := make(chan error, 1)
	e.ReadAsync(0, [][]byte{got}, func(err error) { ch <- err })
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("ReadAsync: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("ReadAsync returned wrong bytes")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAsync completion never arrived")
	}
	if st := e.StatsSnapshot(); st.AsyncReads != 1 {
		t.Fatalf("AsyncReads=%d, want 1", st.AsyncReads)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// After Close the completion still fires — with ErrClosed.
	ch2 := make(chan error, 1)
	e.ReadAsync(0, [][]byte{got}, func(err error) { ch2 <- err })
	select {
	case err := <-ch2:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("ReadAsync after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAsync after Close never completed")
	}
}

// TestEngineReadAsyncRetries: ReadPages, and so ReadAsync, retry each
// page on its own, keeping the pages already read. Every operation of the
// device fails twice before it succeeds, so a read that restarted at its
// first page on each retry would never get past the second page.
func TestEngineReadAsyncRetries(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, async := range []bool{false, true} {
			f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 1, Prob: 1, MaxConsecutive: 2})
			e := NewEngine(f, Options{})
			pol := DefaultPolicy()
			pol.Base, pol.Max = time.Microsecond, time.Microsecond
			e.SetRetry(pol)
			want := make([]byte, n*psTest)
			for i := range want {
				want[i] = byte(i*7 + n)
			}
			if err := e.Write(0, want); err != nil {
				t.Fatal(err)
			}
			e.Barrier()
			before := e.StatsSnapshot().Retries

			dst := make([][]byte, n)
			for i := range dst {
				dst[i] = make([]byte, psTest)
			}
			var err error
			if async {
				ch := make(chan error, 1)
				e.ReadAsync(0, dst, func(err error) { ch <- err })
				err = <-ch
			} else {
				err = e.ReadPages(0, dst)
			}
			if err != nil {
				t.Fatalf("%d pages (async %v): %v", n, async, err)
			}
			if got := bytes.Join(dst, nil); !bytes.Equal(got, want) {
				t.Fatalf("%d pages (async %v): wrong bytes", n, async)
			}
			// Two retries per page: one for each injected failure.
			if r := e.StatsSnapshot().Retries - before; r != uint64(2*n) {
				t.Fatalf("%d pages (async %v): %d retries, want %d", n, async, r, 2*n)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Kind: "mem"}, true},
		{Config{Kind: "flate"}, true},
		{Config{Kind: "file", Dir: "/tmp/x"}, true},
		{Config{Kind: "file"}, false},
		{Config{Kind: "bogus"}, false},
		{Config{FaultProb: 0.5}, true},
		{Config{FaultProb: -0.1}, false},
		{Config{FaultProb: 1.5}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c.cfg, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c.cfg)
		}
	}
}
