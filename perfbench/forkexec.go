package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mix"
	"chorusvm/internal/nucleus"
	"chorusvm/internal/obs"
)

// fork-exec: one closed-loop client, a MIX shell with a dirtied data
// segment. Each op forks a child, which verifies and rewrites a few
// inherited data pages, sends one of them to the parent through a pipe
// (Pipe.WriteFrom: the transit-segment path), execs a second installed
// binary, touches its text and exits. The parent writes one of its own
// data pages while the child lives (a history push), receives the page,
// waits for the child and checks both the message and its own pages.
//
// The op is serialized by two gates: the child starts after the parent's
// post-fork write, and execs after the parent has received the message.
// That keeps every counter a pure function of the seed, so a fixed op
// count repeats core.Stats and the simulated clock exactly.
const (
	feFrames    = 1024 // ample: nothing is evicted
	feOps       = 4000 // fork-exec cycles per round
	feShellText = 4    // pages
	feShellData = 16
	feProgText  = 8
	feProgData  = 2
	feTouch     = 512 // bytes read from each text page after exec
)

var errMismatch = errors.New("oracle mismatch")

type forkExec struct {
	clock  *cost.Clock
	pvm    *core.PVM
	tracer *obs.Tracer
	site   *nucleus.Site
	sys    *mix.System
	pr     *probes
	rng    *rand.Rand
	ps     int64

	shell, prog *mix.Binary
	progText    []byte

	sh       *shellProc
	accesses int
}

// shellProc is the running shell: its process, the pipe its children
// answer on, and the oracle of its data segment.
type shellProc struct {
	proc   *mix.Process
	hold   chan struct{} // closed to let the shell's thread exit
	pipe   *mix.Pipe
	data   [][]byte
	recvVA gmi.VA // page-aligned heap page messages are received into
}

func newForkExec(seed int64, pr *probes) (*forkExec, error) {
	f := &forkExec{clock: cost.New(), pr: pr, rng: rand.New(rand.NewSource(seed))}
	if pr != nil {
		f.tracer = obs.New(obs.Options{})
	}
	f.site = nucleus.NewSite(f.clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
		if pr != nil {
			sa = timedAllocator{sa, pr}
		}
		f.pvm = core.New(core.Options{Frames: feFrames, Clock: f.clock, SegAlloc: sa, Tracer: f.tracer})
		if pr != nil {
			return timedMM{f.pvm, pr}
		}
		return f.pvm
	})
	f.ps = int64(f.pvm.PageSize())
	f.sys = mix.NewSystem(f.site)
	var err error
	if f.shell, err = f.sys.InstallBinary("sh", f.image(feShellText), f.image(feShellData)); err != nil {
		return nil, err
	}
	f.progText = f.image(feProgText)
	if f.prog, err = f.sys.InstallBinary("prog", f.progText, f.image(feProgData)); err != nil {
		return nil, err
	}
	if err := f.startShell(); err != nil {
		return nil, err
	}
	return f, nil
}

// image makes n pages of seeded content.
func (f *forkExec) image(n int) []byte {
	b := make([]byte, int64(n)*f.ps)
	for i := int64(0); i < int64(n); i++ {
		fill(b[i*f.ps:(i+1)*f.ps], f.rng.Uint64())
	}
	return b
}

// startShell spawns a fresh shell and dirties every data page, so the
// data segment is the shell's own (not the binary's) at the first fork.
func (f *forkExec) startShell() error {
	sh := &shellProc{hold: make(chan struct{}), pipe: f.sys.NewPipe()}
	proc, err := f.sys.Spawn(f.shell, func(*mix.Process) int { <-sh.hold; return 0 })
	if err != nil {
		return err
	}
	sh.proc = proc
	f.sh = sh
	for i := 0; i < feShellData; i++ {
		pg := make([]byte, f.ps)
		fill(pg, f.rng.Uint64())
		sh.data = append(sh.data, pg)
		if err := proc.Write(mix.DataBase+gmi.VA(int64(i)*f.ps), pg); err != nil {
			return err
		}
	}
	if sh.recvVA, err = proc.Sbrk(f.ps); err != nil {
		return err
	}
	return nil
}

func (f *forkExec) stopShell() {
	close(f.sh.hold)
	f.sh.proc.Wait()
	f.sh.pipe.Close()
}

// close stops the shell and the site's mapper threads (a capability names
// its mapper's port; destroying the port ends the mapper's serve loop).
func (f *forkExec) close() {
	f.stopShell()
	f.shell.Text.Port.Destroy()
	f.site.SegMgr.DefaultMapper().CreateSegment().Port.Destroy()
}

// op runs one fork-exec cycle and reports its latency or its failure.
func (f *forkExec) op() (time.Duration, error) {
	sh, ps := f.sh, f.ps
	// The pages the child verifies and rewrites; the first one is also
	// the message. The parent rewrites pw after the fork; half the time
	// the child reads it too, which must resolve through the history
	// object to the fork-time content.
	perm := f.rng.Perm(feShellData)
	verify := perm[:1+f.rng.Intn(4)]
	pw := perm[4+f.rng.Intn(feShellData-4)]
	if f.rng.Intn(2) == 0 {
		verify = append(verify, pw)
	}
	snapshot := make([][]byte, len(verify))
	childPages := make([][]byte, len(verify))
	for i, idx := range verify {
		snapshot[i] = append([]byte(nil), sh.data[idx]...)
		childPages[i] = make([]byte, ps)
		fill(childPages[i], f.rng.Uint64())
	}
	parentPage := make([]byte, ps)
	fill(parentPage, f.rng.Uint64())
	// Child: read, write, read back per verified page, then the text
	// touches; parent: its write, the message, its own pages.
	f.accesses += 3*len(verify) + feProgText + 1 + 1 + len(verify) + 1

	gate1, gate2 := make(chan struct{}), make(chan struct{})
	start := time.Now()
	child, err := sh.proc.Fork(func(c *mix.Process) (status int) {
		defer func() {
			if r := recover(); r != nil {
				fmt.Printf("fork-exec: child panicked: %v\n", r)
				sh.pipe.Close()
				status = 99
			}
		}()
		<-gate1
		if err := f.child(c, verify, snapshot, childPages, gate2); err != nil {
			fmt.Printf("fork-exec: child: %v\n", err)
			return 1
		}
		return 0
	})
	if err != nil {
		return 0, fmt.Errorf("fork: %w", err)
	}
	if f.pr != nil {
		f.pr.since(tFork, start)
	}
	werr := sh.proc.Write(mix.DataBase+gmi.VA(int64(pw)*ps), parentPage)
	close(gate1)
	t := time.Now()
	n, rerr := sh.pipe.ReadInto(sh.proc, sh.recvVA, ps)
	if f.pr != nil && rerr == nil {
		f.pr.since(tRecv, t)
	}
	close(gate2)
	status := child.Wait()
	switch {
	case werr != nil:
		return 0, fmt.Errorf("parent write: %w", werr)
	case rerr != nil:
		return 0, fmt.Errorf("pipe read: %w", rerr)
	case n != ps:
		return 0, fmt.Errorf("pipe read %d bytes, want %d", n, ps)
	case status != 0:
		return 0, fmt.Errorf("child exit status %d", status)
	}
	copy(sh.data[pw], parentPage)
	buf := make([]byte, ps)
	if err := sh.proc.Read(sh.recvVA, buf); err != nil {
		return 0, fmt.Errorf("read message: %w", err)
	}
	if !bytes.Equal(buf, childPages[0]) {
		return 0, fmt.Errorf("message: %w", errMismatch)
	}
	for _, idx := range append(verify, pw) {
		if err := sh.proc.Read(mix.DataBase+gmi.VA(int64(idx)*ps), buf); err != nil {
			return 0, fmt.Errorf("read own page %d: %w", idx, err)
		}
		if !bytes.Equal(buf, sh.data[idx]) {
			return 0, fmt.Errorf("own page %d after child exit: %w", idx, errMismatch)
		}
	}
	return time.Since(start), nil
}

// child is the forked process's body: verify and rewrite the inherited
// pages, send the first one, then exec prog and touch its text.
func (f *forkExec) child(c *mix.Process, verify []int, snapshot, pages [][]byte, gate2 chan struct{}) error {
	ps := f.ps
	buf := make([]byte, ps)
	sent := false
	defer func() {
		if !sent {
			f.sh.pipe.Close() // unblock the parent's read
		}
	}()
	for i, idx := range verify {
		va := mix.DataBase + gmi.VA(int64(idx)*ps)
		if err := c.Read(va, buf); err != nil {
			return fmt.Errorf("read inherited page %d: %w", idx, err)
		}
		if !bytes.Equal(buf, snapshot[i]) {
			return fmt.Errorf("inherited page %d: %w", idx, errMismatch)
		}
		if err := c.Write(va, pages[i]); err != nil {
			return fmt.Errorf("rewrite page %d: %w", idx, err)
		}
		if err := c.Read(va, buf); err != nil || !bytes.Equal(buf, pages[i]) {
			return fmt.Errorf("rewritten page %d: %w", idx, errors.Join(err, errMismatch))
		}
	}
	t := time.Now()
	ev := f.clock.Count(cost.EvBcopyPage)
	if err := f.sh.pipe.WriteFrom(c, mix.DataBase+gmi.VA(int64(verify[0])*ps), ps); err != nil {
		return fmt.Errorf("pipe write: %w", err)
	}
	sent = true
	if f.pr != nil {
		f.pr.since(tSend, t)
		f.pr.count[cIPCMsgs].Add(1)
		f.pr.count[cIPCBcopyPages].Add(int64(f.clock.Count(cost.EvBcopyPage) - ev))
	}
	<-gate2
	t = time.Now()
	if err := c.Exec(f.prog); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	if f.pr != nil {
		f.pr.since(tExec, t)
	}
	for i := int64(0); i < feProgText; i++ {
		if err := c.Read(mix.TextBase+gmi.VA(i*ps), buf[:feTouch]); err != nil {
			return fmt.Errorf("touch text page %d: %w", i, err)
		}
		if !bytes.Equal(buf[:feTouch], f.progText[i*ps:i*ps+feTouch]) {
			return fmt.Errorf("text page %d: %w", i, errMismatch)
		}
	}
	t = time.Now()
	c.Exit(0)
	if f.pr != nil {
		f.pr.since(tExit, t)
	}
	return nil
}

// run executes n ops, resetting the shell after any failure so that one
// failure does not cascade into the next op.
func (f *forkExec) run(n int, rr *roundResult, onTenth func()) {
	for i := 0; i < n; i++ {
		rr.attempts++
		lat, err := f.op()
		if err != nil {
			rr.failed++
			fmt.Printf("fork-exec: op %d failed: %v\n", i, err)
			f.stopShell()
			if err := f.startShell(); err != nil {
				panic(fmt.Sprintf("fork-exec: restart shell: %v", err))
			}
		} else {
			rr.lat = append(rr.lat, lat)
		}
		if f.pr != nil {
			f.pr.sampleFree(f.pvm.Memory().FreeFrames())
		}
		if onTenth != nil && (i+1)%(n/10) == 0 {
			onTenth()
		}
	}
}

func forkExecRound(seed int64, pr *probes) roundResult {
	var rr roundResult
	t0 := time.Now()
	f, err := newForkExec(seed, pr)
	if err != nil {
		panic(fmt.Sprintf("fork-exec: set-up: %v", err))
	}
	rr.setup = time.Since(t0)
	rr.lat = make([]time.Duration, 0, feOps)
	m := startMeter(f.pvm, f.clock, pr, f.tracer)
	var onTenth func()
	var ends []time.Duration
	var live, heap []string
	if pr != nil {
		// The decay line: throughput per tenth of the round beside the
		// live cache count and the Go heap, where state kept alive past
		// its process shows up.
		onTenth = func() {
			ends = append(ends, time.Since(m.t0))
			live = append(live, fmt.Sprint(f.pvm.CacheCount()))
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap = append(heap, fmt.Sprintf("%.0f", float64(ms.HeapAlloc)/(1<<20)))
		}
	}
	f.run(feOps, &rr, onTenth)
	m.stop(&rr, f.accesses)
	f.close()
	m.finish()
	if pr != nil {
		fmt.Printf("decay fork-exec ops_per_s by tenth: %s | core.caches_live: %s | heap_mb: %s\n",
			tenths(ends, feOps/10), strings.Join(live, " "), strings.Join(heap, " "))
	}
	return rr
}

// tenths renders per-tenth throughput of one round for the decay line.
func tenths(ends []time.Duration, opsPerTenth int) string {
	var b strings.Builder
	prev := time.Duration(0)
	for i, e := range ends {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", float64(opsPerTenth)/(e-prev).Seconds())
		prev = e
	}
	return b.String()
}
