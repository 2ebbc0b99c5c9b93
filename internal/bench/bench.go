// Package bench implements the paper's evaluation workloads (section 5.3)
// as reusable harnesses over any gmi.MemoryManager, so the same code
// regenerates both the Chorus and the Mach rows of Tables 6 and 7, plus
// the derived overheads of section 5.3.2 and this repository's ablations.
//
// Each measurement reports two numbers: the simulated time (event counts
// charged against the paper-calibrated cost table — comparable to the
// paper's milliseconds) and the wall-clock time of this implementation
// (comparable to nothing but itself; useful for regressions).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/machvm"
	"chorusvm/internal/seg"
)

// Factory builds a fresh memory manager + clock per measurement, so
// measurements are independent. The caller calls done when the
// measurement ends: it closes what the factory created for the manager.
type Factory func() (mm gmi.MemoryManager, clock *cost.Clock, done func())

// PVM returns a factory for the paper's system.
func PVM(opts core.Options) Factory {
	return func() (gmi.MemoryManager, *cost.Clock, func()) {
		o := opts
		if o.Clock == nil {
			o.Clock = cost.New()
		}
		done := defaultSwap(&o.SegAlloc, o.PageSize, o.Clock)
		return core.New(o), o.Clock, done
	}
}

// Mach returns a factory for the shadow-object baseline.
func Mach(opts machvm.Options) Factory {
	return func() (gmi.MemoryManager, *cost.Clock, func()) {
		o := opts
		if o.Clock == nil {
			o.Clock = cost.New()
		}
		done := defaultSwap(&o.SegAlloc, o.PageSize, o.Clock)
		return machvm.New(o), o.Clock, done
	}
}

// defaultSwap installs an in-memory swap allocator when *alloc is nil and
// returns the function that closes it. A caller-supplied allocator is
// left to its owner: done is then a no-op.
func defaultSwap(alloc *gmi.SegmentAllocator, pageSize int, clock *cost.Clock) (done func()) {
	if *alloc != nil {
		return func() {}
	}
	if pageSize == 0 {
		pageSize = 8192
	}
	swap := seg.NewSwapAllocator(pageSize, clock)
	*alloc = swap
	return func() { mustClose(swap) }
}

// mustClose closes what a driver created once its run ends, panicking on
// an error like every other failure in a driver.
func mustClose(c io.Closer) {
	if err := c.Close(); err != nil {
		panic(err)
	}
}

// Result is one cell of a table.
type Result struct {
	RegionPages int
	TouchPages  int
	Sim         time.Duration // simulated per-iteration time
	Wall        time.Duration // wall-clock per-iteration time
}

// SimMS renders the simulated time in the paper's milliseconds.
func (r Result) SimMS() float64 { return float64(r.Sim) / float64(time.Millisecond) }

const benchBase = gmi.VA(0x100_0000)

// ZeroFill runs the Table 6 workload: create a region of regionPages
// backed by a fresh temporary cache, touch touchPages of it (demand
// zero-fill), destroy everything. Averaged over iters iterations.
func ZeroFill(f Factory, regionPages, touchPages, iters int) Result {
	mm, clock, done := f()
	defer done()
	ctx, err := mm.ContextCreate()
	if err != nil {
		panic(err)
	}
	ps := int64(mm.PageSize())
	size := int64(regionPages) * ps
	one := []byte{0xFF}

	run := func() {
		c := mm.TempCacheCreate()
		r, err := ctx.RegionCreate(benchBase, size, gmi.ProtRW, c, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < touchPages; i++ {
			if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), one); err != nil {
				panic(err)
			}
		}
		if err := r.Destroy(); err != nil {
			panic(err)
		}
		if err := c.Destroy(); err != nil {
			panic(err)
		}
	}
	run() // warm up structure pools and code paths

	snap := clock.Snapshot()
	start := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	wall := time.Since(start)
	return Result{
		RegionPages: regionPages,
		TouchPages:  touchPages,
		Sim:         clock.Since(snap) / time.Duration(iters),
		Wall:        wall / time.Duration(iters),
	}
}

// CopyOnWrite runs the Table 7 workload: a fully resident source region is
// deferred-copied; touchPages of the source are then written (forcing real
// copies of the originals); the copy is destroyed. Averaged over iters.
func CopyOnWrite(f Factory, regionPages, touchPages, iters int) Result {
	mm, clock, done := f()
	defer done()
	ctx, err := mm.ContextCreate()
	if err != nil {
		panic(err)
	}
	ps := int64(mm.PageSize())
	size := int64(regionPages) * ps

	// Source region, created and entirely allocated before measurement.
	src := mm.TempCacheCreate()
	if _, err := ctx.RegionCreate(benchBase, size, gmi.ProtRW, src, 0); err != nil {
		panic(err)
	}
	one := []byte{0x5A}
	for i := 0; i < regionPages; i++ {
		if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), one); err != nil {
			panic(err)
		}
	}

	run := func() {
		cpy := mm.TempCacheCreate()
		if err := src.Copy(cpy, 0, 0, size); err != nil {
			panic(err)
		}
		r, err := ctx.RegionCreate(benchBase+gmi.VA(size)+benchBase, size, gmi.ProtRW, cpy, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < touchPages; i++ {
			// Writing the source forces the original page to be
			// really copied (into the history object / shadow).
			if err := ctx.Write(benchBase+gmi.VA(int64(i)*ps), one); err != nil {
				panic(err)
			}
		}
		if err := r.Destroy(); err != nil {
			panic(err)
		}
		if err := cpy.Destroy(); err != nil {
			panic(err)
		}
	}
	run()

	snap := clock.Snapshot()
	start := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	wall := time.Since(start)
	return Result{
		RegionPages: regionPages,
		TouchPages:  touchPages,
		Sim:         clock.Since(snap) / time.Duration(iters),
		Wall:        wall / time.Duration(iters),
	}
}

// Matrix is the paper's table shape: rows are region sizes, columns are
// touched/copied amounts; cells where touch > region are absent.
type Matrix struct {
	Title string
	Rows  []int // region sizes in pages
	Cols  []int // touched pages
	Cells map[[2]int]Result
}

// PaperRows and PaperCols are the sizes Tables 6 and 7 use (8 KB pages):
// regions of 8 KB, 256 KB, 1024 KB; 0, 1, 32, 128 pages touched.
var (
	PaperRows = []int{1, 32, 128}
	PaperCols = []int{0, 1, 32, 128}
)

// Run fills a matrix with the given workload.
func Run(title string, f Factory, workload func(Factory, int, int, int) Result, iters int) *Matrix {
	m := &Matrix{Title: title, Rows: PaperRows, Cols: PaperCols, Cells: make(map[[2]int]Result)}
	for _, rows := range m.Rows {
		for _, cols := range m.Cols {
			if cols > rows {
				continue
			}
			m.Cells[[2]int{rows, cols}] = workload(f, rows, cols, iters)
		}
	}
	return m
}

// Format renders the matrix in the paper's layout.
func (m *Matrix) Format(pageSizeKB int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", m.Title)
	fmt.Fprintf(&b, "%-12s", "region")
	for _, c := range m.Cols {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("%d Kb", c*pageSizeKB))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s", "")
	for _, c := range m.Cols {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("%d pages", c))
	}
	b.WriteByte('\n')
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-12s", fmt.Sprintf("%d Kb", r*pageSizeKB))
		for _, c := range m.Cols {
			cell, ok := m.Cells[[2]int{r, c}]
			if !ok {
				fmt.Fprintf(&b, "%12s", "-")
				continue
			}
			fmt.Fprintf(&b, "%12s", fmt.Sprintf("%.3f ms", cell.SimMS()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Derived reproduces the section 5.3.2 arithmetic from measured matrices.
type Derived struct {
	TreeMgmtMS       float64 // paper: 0.03 ms
	ProtectPerPageMS float64 // paper: 0.02 ms
	CowFaultMS       float64 // paper: 0.31 ms
	ZeroFaultMS      float64 // paper: 0.27 ms
}

// Derive applies the paper's own formulas to a measured Table 6 + Table 7
// pair (Chorus side).
func Derive(t6, t7 *Matrix) Derived {
	ms := func(m *Matrix, rows, cols int) float64 { return m.Cells[[2]int{rows, cols}].SimMS() }
	var d Derived
	// Per-page protection: (copy 128-page region, 0 copied) minus (copy
	// 1-page region, 0 copied), divided by the extra pages.
	d.ProtectPerPageMS = (ms(t7, 128, 0) - ms(t7, 1, 0)) / 127
	// Tree management: 1-page copy setup minus 1-page creation setup
	// minus one page's protection.
	d.TreeMgmtMS = ms(t7, 1, 0) - ms(t6, 1, 0) - d.ProtectPerPageMS
	// COW fault overhead: ((128 copied) - (0 copied))/128 - bcopy.
	d.CowFaultMS = (ms(t7, 128, 128)-ms(t7, 128, 0))/128 - 1.4
	// Demand-zero overhead: ((128 touched) - (0 touched))/128 - bzero.
	d.ZeroFaultMS = (ms(t6, 128, 128)-ms(t6, 128, 0))/128 - 0.87
	return d
}

// Format renders the derived overheads with the paper's targets.
func (d Derived) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "derived overheads (section 5.3.2)        measured   paper\n")
	fmt.Fprintf(&b, "history-tree management per copy        %7.3f ms   0.030 ms\n", d.TreeMgmtMS)
	fmt.Fprintf(&b, "page protection per page at copy        %7.3f ms   0.020 ms\n", d.ProtectPerPageMS)
	fmt.Fprintf(&b, "copy-on-write fault overhead per page   %7.3f ms   0.310 ms\n", d.CowFaultMS)
	fmt.Fprintf(&b, "demand-zero fault overhead per page     %7.3f ms   0.270 ms\n", d.ZeroFaultMS)
	return b.String()
}
