package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mix"
	"chorusvm/internal/nucleus"
)

// MakeResult summarizes the macro-benchmark of section 5.1.3's motivating
// scenario: a "large make" — the same compiler exec'd once per source
// file, each run reading its input file and writing an object file.
type MakeResult struct {
	WarmSim  time.Duration // whole make, segment caching on
	ColdSim  time.Duration // whole make, segment caching off
	WarmWall time.Duration
	ColdWall time.Duration
	Execs    int
}

// MakeWorkload drives the whole stack — MIX fork/exec, the segment
// manager, file I/O, IPC-backed mappers, the PVM — once with segment
// caching and once without.
func MakeWorkload(files, textPages int) MakeResult {
	var res MakeResult
	res.Execs = files
	for _, warm := range []bool{true, false} {
		clock := cost.New()
		site := nucleus.NewSite(clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
			return core.New(core.Options{Frames: 4096, Clock: clock, SegAlloc: sa})
		})
		if !warm {
			site.SegMgr.SetCacheLimit(0)
		}
		sys := mix.NewSystem(site)
		ps := site.MM.PageSize()

		// The "compiler": textPages of text, one page of data.
		cc, err := sys.InstallBinary("cc", make([]byte, textPages*ps), make([]byte, ps))
		if err != nil {
			panic(err)
		}
		// Source files to compile.
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("src%d.c", i)
			if err := sys.Create(name); err != nil {
				panic(err)
			}
		}
		// Pre-populate the sources (the editor wrote them earlier).
		seed, err := sys.Spawn(cc, func(p *mix.Process) int {
			for i := 0; i < files; i++ {
				f, err := p.Open(fmt.Sprintf("src%d.c", i))
				if err != nil {
					return 1
				}
				if _, err := f.Write(make([]byte, 2*ps)); err != nil {
					return 2
				}
				if err := f.Close(); err != nil {
					return 3
				}
			}
			return 0
		})
		if err != nil {
			panic(err)
		}
		if st := seed.Wait(); st != 0 {
			panic(fmt.Sprintf("seed process failed: %d", st))
		}

		snap := clock.Snapshot()
		start := time.Now()
		// make: one "compiler" process per file; each reads its source
		// through the file layer, touches its text (the exec working
		// set), and writes an object file.
		for i := 0; i < files; i++ {
			i := i
			if err := sys.Create(fmt.Sprintf("src%d.o", i)); err != nil {
				panic(err)
			}
			p, err := sys.Spawn(cc, func(p *mix.Process) int {
				// Fault the text in (running the compiler).
				one := make([]byte, 1)
				for pg := 0; pg < textPages; pg++ {
					if err := p.Read(mix.TextBase+gmi.VA(pg*ps), one); err != nil {
						return 1
					}
				}
				in, err := p.Open(fmt.Sprintf("src%d.c", i))
				if err != nil {
					return 2
				}
				defer in.Close()
				out, err := p.Open(fmt.Sprintf("src%d.o", i))
				if err != nil {
					return 3
				}
				defer out.Close()
				buf := make([]byte, ps)
				for {
					n, err := in.Read(buf)
					if err != nil {
						return 4
					}
					if n == 0 {
						break
					}
					if _, err := out.Write(buf[:n]); err != nil {
						return 5
					}
				}
				return 0
			})
			if err != nil {
				panic(err)
			}
			if st := p.Wait(); st != 0 {
				panic(fmt.Sprintf("compile %d failed: %d", i, st))
			}
		}
		wall := time.Since(start)
		sim := clock.Since(snap)
		if warm {
			res.WarmSim, res.WarmWall = sim, wall
		} else {
			res.ColdSim, res.ColdWall = sim, wall
		}
		site.Close()
	}
	return res
}

// Format renders the make comparison.
func (r MakeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\"large make\": %d compiles through the full MIX stack\n", r.Execs)
	fmt.Fprintf(&b, "  segment caching on:  %10.1f ms simulated\n",
		float64(r.WarmSim)/float64(time.Millisecond))
	fmt.Fprintf(&b, "  segment caching off: %10.1f ms simulated\n",
		float64(r.ColdSim)/float64(time.Millisecond))
	fmt.Fprintf(&b, "  speedup: %.1fx\n", float64(r.ColdSim)/float64(r.WarmSim))
	return b.String()
}
