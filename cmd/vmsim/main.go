// Command vmsim drives the PVM interactively from scripted scenarios and
// renders the history tree, reproducing the paper's Figure 3 (a-d) as
// ASCII art: each cache shows its resident pages (` means absent, ' means
// a modified value, * means hardware write-protected), and the tree edges
// are the parent fragments cache misses travel upwards along.
//
// Usage:
//
//	vmsim            # render the four Figure 3 scenarios
//	vmsim -collapse  # additionally show a fork-exit chain collapsing
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

const (
	pg   = 8192
	base = gmi.VA(0x10000)
)

// world owns a PVM, its swap allocator, a driving context, and human
// names for caches.
type world struct {
	pvm   *core.PVM
	swap  *seg.SwapAllocator
	ctx   gmi.Context
	names map[gmi.Cache]string
	addrs map[gmi.Cache]gmi.VA
	next  gmi.VA
	wn    int // working-object name counter
}

func newWorld() *world {
	clock := cost.New()
	swap := seg.NewSwapAllocator(pg, clock)
	p := core.New(core.Options{Frames: 512, PageSize: pg, Clock: clock,
		SegAlloc: swap, SmallCopyPages: -1})
	ctx, err := p.ContextCreate()
	if err != nil {
		panic(err)
	}
	return &world{pvm: p, swap: swap, ctx: ctx, names: map[gmi.Cache]string{}, addrs: map[gmi.Cache]gmi.VA{}, next: base}
}

// close ends the world: it closes the swap segments its PVM was given.
func (w *world) close() {
	if err := w.swap.Close(); err != nil {
		panic(err)
	}
}

// newCache creates a named, mapped temporary cache of n pages.
func (w *world) newCache(name string, pages int) gmi.Cache {
	c := w.pvm.TempCacheCreate()
	w.names[c] = name
	addr := w.next
	w.next += gmi.VA(pages*pg) + 0x100000
	w.addrs[c] = addr
	if _, err := w.ctx.RegionCreate(addr, int64(pages*pg), gmi.ProtRW, c, 0); err != nil {
		panic(err)
	}
	return c
}

// fill writes initial page values 1..n ("page i holds value i").
func (w *world) fill(c gmi.Cache, pages int) {
	for i := 0; i < pages; i++ {
		buf := make([]byte, pg)
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := w.ctx.Write(w.addrs[c]+gmi.VA(i*pg), buf); err != nil {
			panic(err)
		}
	}
}

// modify writes a new value into page i of c (value' in the figure).
func (w *world) modify(c gmi.Cache, pageIdx int) {
	buf := make([]byte, pg)
	for j := range buf {
		buf[j] = byte(0x80 | (pageIdx + 1))
	}
	if err := w.ctx.Write(w.addrs[c]+gmi.VA(pageIdx*pg), buf); err != nil {
		panic(err)
	}
}

// copyTo performs the deferred copy src -> a fresh named cache.
func (w *world) copyTo(src gmi.Cache, name string, pages int) gmi.Cache {
	dst := w.newCache(name, pages)
	if err := src.Copy(dst, 0, 0, int64(pages*pg)); err != nil {
		panic(err)
	}
	return dst
}

// render draws the tree rooted at the caches with no parents.
func (w *world) render(pages int) string {
	// Discover and label internal (working/zombie) caches first, in a
	// stable order.
	all := w.pvm.Caches()
	sort.Slice(all, func(i, j int) bool { return w.label(all[i]) < w.label(all[j]) })
	for _, c := range all {
		if _, ok := w.names[c]; !ok {
			info, _ := w.pvm.Describe(c)
			w.wn++
			switch {
			case info.Working:
				w.names[c] = fmt.Sprintf("w%d", w.wn)
			case info.Zombie:
				w.names[c] = fmt.Sprintf("z%d", w.wn)
			default:
				w.names[c] = fmt.Sprintf("anon%d", w.wn)
			}
		}
	}
	// children: edges follow parent fragments upwards, so draw downwards.
	children := map[gmi.Cache][]gmi.Cache{}
	var roots []gmi.Cache
	for _, c := range all {
		info, ok := w.pvm.Describe(c)
		if !ok {
			continue
		}
		if len(info.Parents) == 0 {
			roots = append(roots, c)
			continue
		}
		seen := map[gmi.Cache]bool{}
		for _, f := range info.Parents {
			if !seen[f.Parent] {
				seen[f.Parent] = true
				children[f.Parent] = append(children[f.Parent], c)
			}
		}
	}
	sortCaches := func(cs []gmi.Cache) {
		sort.Slice(cs, func(i, j int) bool { return w.names[cs[i]] < w.names[cs[j]] })
	}
	sortCaches(roots)
	var b strings.Builder
	var draw func(c gmi.Cache, prefix string, isRoot, last bool)
	draw = func(c gmi.Cache, prefix string, isRoot, last bool) {
		connector, childPrefix := "├── ", prefix+"│   "
		if isRoot {
			connector, childPrefix = "", prefix
		} else if last {
			connector, childPrefix = "└── ", prefix+"    "
		}
		fmt.Fprintf(&b, "%s%s%-12s %s\n", prefix, connector, w.names[c], w.pageBoxes(c, pages))
		kids := children[c]
		sortCaches(kids)
		for i, k := range kids {
			draw(k, childPrefix, false, i == len(kids)-1)
		}
	}
	for i, r := range roots {
		draw(r, "", true, i == len(roots)-1)
	}
	return b.String()
}

func (w *world) label(c gmi.Cache) string {
	if n, ok := w.names[c]; ok {
		return n
	}
	return "zz"
}

// pageBoxes renders a cache's owned pages like the figure: value, with '
// for modified values and * for write-protected frames.
func (w *world) pageBoxes(c gmi.Cache, pages int) string {
	info, ok := w.pvm.Describe(c)
	if !ok {
		return "(gone)"
	}
	own := map[int64]core.PageInfo{}
	for _, p := range info.Resident {
		own[p.Off] = p
	}
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i < pages; i++ {
		p, have := own[int64(i*pg)]
		switch {
		case !have:
			b.WriteString("  .")
		default:
			// Recover the stored value from the frame content tag.
			var val byte
			buf := make([]byte, 1)
			if err := c.ReadAt(int64(i*pg), buf); err == nil {
				val = buf[0]
			}
			mark := " "
			if val&0x80 != 0 {
				mark = "'"
			}
			star := ""
			if p.CowProtected {
				star = "*"
			}
			fmt.Fprintf(&b, " %d%s%s", val&0x7F, mark, star)
		}
	}
	b.WriteString(" ]")
	if info.History != nil {
		fmt.Fprintf(&b, "  (history: %s)", w.label(info.History))
	}
	return b.String()
}

func fig3(out io.Writer) {
	fmt.Fprintln(out, "Figure 3.a — cpy1 is a copy-on-write of pages 1-3 of src;")
	fmt.Fprintln(out, "page 2 updated in src, page 3 updated in cpy1:")
	w := newWorld()
	src := w.newCache("src", 3)
	w.fill(src, 3)
	cpy1 := w.copyTo(src, "cpy1", 3)
	w.modify(src, 1)  // page 2
	w.modify(cpy1, 2) // page 3
	fmt.Fprintln(out, w.render(3))

	fmt.Fprintln(out, "Figure 3.b — then cpy1 is copied to copyOfCpy1; page 3 of cpy1 modified:")
	w.copyTo(cpy1, "copyOfCpy1", 3)
	w.modify(cpy1, 2)
	fmt.Fprintln(out, w.render(3))
	w.close()

	fmt.Fprintln(out, "Figure 3.c — pages 1-4 of src copied twice (cpy1, cpy2): a working")
	fmt.Fprintln(out, "object w1 appears; modified: src page 3, cpy1 page 3, cpy2 page 4:")
	w = newWorld()
	src = w.newCache("src", 4)
	w.fill(src, 4)
	cpy1 = w.copyTo(src, "cpy1", 4)
	w.copyTo(src, "cpy2", 4)
	w.modify(src, 2)
	w.modify(cpy1, 2)
	w.modify(w.byName("cpy2"), 3)
	fmt.Fprintln(out, w.render(4))

	fmt.Fprintln(out, "Figure 3.d — a third copy of src inserts a second working object:")
	w.copyTo(src, "cpy3", 4)
	fmt.Fprintln(out, w.render(4))
	w.close()
}

func (w *world) byName(name string) gmi.Cache {
	for c, n := range w.names {
		if n == name {
			return c
		}
	}
	panic("unknown cache " + name)
}

func collapseDemo(out io.Writer) {
	fmt.Fprintln(out, "Fork-exit chain: each generation deferred-copies the image and the")
	fmt.Fprintln(out, "parent exits; the collapse GC keeps the tree flat:")
	w := newWorld()
	cur := w.newCache("gen0", 3)
	w.fill(cur, 3)
	for g := 1; g <= 3; g++ {
		child := w.copyTo(cur, fmt.Sprintf("gen%d", g), 3)
		w.modify(child, g%3)
		// Parent exits.
		if err := cur.Destroy(); err != nil {
			panic(err)
		}
		cur = child
		fmt.Fprintf(out, "after generation %d:\n%s\n", g, w.render(3))
	}
	fmt.Fprintf(out, "live cache descriptors: %d\n", w.pvm.CacheCount())
	w.close()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the scenarios on
// stdout and returns the exit status (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	collapse := fs.Bool("collapse", false, "also demonstrate history-chain collapse")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fig3(stdout)
	if *collapse {
		collapseDemo(stdout)
	}
	return 0
}
