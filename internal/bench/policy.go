package bench

import (
	"fmt"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/gmi"
)

// PolicyResult compares the two deferred-copy policies the history-object
// technique supports (section 4.2.2): copy-on-write materializes a
// private page only when the copy writes; copy-on-reference materializes
// on any access.
type PolicyResult struct {
	ReadHeavyCOW time.Duration // copy then read everything, write little
	ReadHeavyCOR time.Duration
	WriteAllCOW  time.Duration // copy then overwrite everything
	WriteAllCOR  time.Duration
}

// CopyPolicy measures a fork-sized copy followed by (a) a read-mostly
// pass and (b) a write-everything pass, under both policies.
func CopyPolicy(pages, iters int) PolicyResult {
	run := func(cor bool, writeAll bool) time.Duration {
		f := PVM(core.Options{Frames: 4096, SmallCopyPages: -1, CopyOnReference: cor})
		mm, clock, done := f()
		defer done()
		ctx, _ := mm.ContextCreate()
		ps := int64(mm.PageSize())
		size := int64(pages) * ps
		src := mm.TempCacheCreate()
		if _, err := ctx.RegionCreate(benchBase, size, gmi.ProtRW, src, 0); err != nil {
			panic(err)
		}
		for i := 0; i < pages; i++ {
			if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), []byte{1}); err != nil {
				panic(err)
			}
		}
		dbase := benchBase + gmi.VA(2*size)
		work := func() {
			dst := mm.TempCacheCreate()
			if err := src.Copy(dst, 0, 0, size); err != nil {
				panic(err)
			}
			r, err := ctx.RegionCreate(dbase, size, gmi.ProtRW, dst, 0)
			if err != nil {
				panic(err)
			}
			one := []byte{2}
			for i := 0; i < pages; i++ {
				va := dbase + gmi.VA(int64(i)*ps)
				if writeAll {
					if err := ctx.Write(va, one); err != nil {
						panic(err)
					}
				} else if err := ctx.Read(va, one); err != nil {
					panic(err)
				}
			}
			if err := r.Destroy(); err != nil {
				panic(err)
			}
			if err := dst.Destroy(); err != nil {
				panic(err)
			}
		}
		work()
		snap := clock.Snapshot()
		for i := 0; i < iters; i++ {
			work()
		}
		return clock.Since(snap) / time.Duration(iters)
	}
	return PolicyResult{
		ReadHeavyCOW: run(false, false),
		ReadHeavyCOR: run(true, false),
		WriteAllCOW:  run(false, true),
		WriteAllCOR:  run(true, true),
	}
}

// Format renders the policy comparison.
func (r PolicyResult) Format() string {
	var b strings.Builder
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(&b, "deferred-copy policy (section 4.2.2): copy 32 pages then access\n")
	fmt.Fprintf(&b, "  read-only pass:  COW %8.3f ms   COR %8.3f ms  (COW shares; COR copies)\n",
		ms(r.ReadHeavyCOW), ms(r.ReadHeavyCOR))
	fmt.Fprintf(&b, "  write-all pass:  COW %8.3f ms   COR %8.3f ms  (both copy everything)\n",
		ms(r.WriteAllCOW), ms(r.WriteAllCOR))
	return b.String()
}
