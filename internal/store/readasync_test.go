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

// TestEngineReadAsyncRetries: async reads own their retry policy — a
// backend that fails transiently a few times still completes the read
// successfully.
func TestEngineReadAsyncRetries(t *testing.T) {
	f := NewFaulty(NewMem(psTest), FaultConfig{Seed: 7, Prob: 1, MaxConsecutive: 2})
	e := NewEngine(f, Options{})
	pol := DefaultPolicy()
	pol.Base, pol.Max = time.Microsecond, time.Microsecond
	e.SetRetry(pol)
	want := make([]byte, psTest)
	for i := range want {
		want[i] = byte(i ^ 0x5A)
	}
	if err := e.Write(0, want); err != nil {
		t.Fatal(err)
	}
	e.Barrier()
	ch := make(chan error, 1)
	got := make([]byte, psTest)
	e.ReadAsync(0, [][]byte{got}, func(err error) { ch <- err })
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("ReadAsync with transient faults: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAsync never completed")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadAsync returned wrong bytes after retries")
	}
	if st := e.StatsSnapshot(); st.Retries == 0 {
		t.Fatal("expected retry activity")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
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
