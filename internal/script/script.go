// Package script implements a small trace language for driving the PVM —
// the spirit of the paper's Chorus Nucleus Simulator (section 5.2): "a
// practical teaching aid" that lets machine-independent memory-management
// behaviour be explored without hardware. cmd/vmtrace runs script files;
// the test suite runs them as golden tests.
//
// Language (one statement per line, '#' comments):
//
//	store KIND [dir=PATH] [faults=P] [seed=N]
//	                                    select the backing store (mem, file
//	                                    or flate) for segments created from
//	                                    now on; faults= injects transient
//	                                    I/O failures with probability P
//	cache NAME [pages=N preload=TAG]    create a cache; with preload=, a
//	                                    segment-backed one holding a
//	                                    pattern; otherwise a temporary
//	region NAME CACHE ADDR PAGES [ro]   map CACHE at hex ADDR
//	write NAME OFF TAG LEN              write LEN pattern bytes at OFF
//	read NAME OFF LEN                   read (and print a digest)
//	expect NAME OFF TAG LEN             read and verify a pattern
//	expectzero NAME OFF LEN             read and verify zeroes
//	copy SRC SOFF DST DOFF PAGES        cache.copy (page units)
//	move SRC SOFF DST DOFF PAGES        cache.move (page units)
//	flush|sync|invalidate NAME          whole-cache data control
//	lock NAME | unlock NAME             region lockInMemory / unlock
//	destroy NAME                        destroy a region or cache
//	pageout N                           force N reclaim steps; prints the
//	                                    frames freed and the steps taken
//	tree                                print the history tree
//	stats                               print every PVM counter
//	clock                               print the simulated clock
//	trace on|off                        enable/disable the event tracer
//	hist                                print the latency histograms
//	policy [NAME]                       print the replacement policy, or
//	                                    switch to lru, clock or 2q
//	harvest                             run one referenced-bit harvest
//	                                    tick (feeds the replacement policy)
//
// Offsets and addresses accept 0x-hex or decimal; OFF/LEN are bytes.
package script

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/obs"
	"chorusvm/internal/policy"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// Interp is one interpreter instance: a PVM, one context, and the named
// objects scripts create.
type Interp struct {
	pvm   *core.PVM
	clock *cost.Clock
	ctx   gmi.Context
	out   io.Writer

	caches  map[string]gmi.Cache
	regions map[string]regionInfo
	order   []string // creation order of caches, for stable tree output
	line    int

	// storeCfg selects the backend behind segments the interpreter
	// creates (preloaded caches, swap segments). Zero value = in-memory.
	storeCfg store.Config
}

type regionInfo struct {
	region gmi.Region
	cache  string
	addr   gmi.VA
	pages  int64
}

// New creates an interpreter writing command output to out. Unless the
// caller chooses otherwise, every copy is deferred with history objects
// (SmallCopyPages disabled): the tool exists to explore history trees.
func New(out io.Writer, opts core.Options) (*Interp, error) {
	if opts.Clock == nil {
		opts.Clock = cost.New()
	}
	if opts.SmallCopyPages == 0 {
		opts.SmallCopyPages = -1
	}
	if opts.SegAlloc == nil {
		ps := opts.PageSize
		if ps == 0 {
			ps = 8192
		}
		opts.SegAlloc = seg.NewSwapAllocator(ps, opts.Clock)
	}
	if opts.Tracer == nil {
		// Scripts can `trace on` at any point, so the interpreter always
		// carries a tracer; it starts disabled (one atomic load per probe)
		// unless the caller supplied a live one.
		opts.Tracer = obs.New(obs.Options{})
		opts.Tracer.SetEnabled(false)
	}
	p := core.New(opts)
	ctx, err := p.ContextCreate()
	if err != nil {
		return nil, err
	}
	return &Interp{
		pvm:     p,
		clock:   opts.Clock,
		ctx:     ctx,
		out:     out,
		caches:  make(map[string]gmi.Cache),
		regions: make(map[string]regionInfo),
	}, nil
}

// PVM exposes the interpreter's memory manager (tests inspect it).
func (in *Interp) PVM() *core.PVM { return in.pvm }

// SetStore selects the backing store for segments the interpreter
// creates from now on — preloaded caches and the swap segments the
// allocator hands out. It is the programmatic form of the `store`
// statement; caches created earlier keep their old backends.
func (in *Interp) SetStore(cfg store.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	in.storeCfg = cfg
	ps := in.pvm.PageSize()
	in.pvm.SetSegmentAllocator(seg.NewSwapAllocatorOn(ps, in.clock, cfg.Factory(ps)))
	return nil
}

// Run executes a whole script, stopping at the first error.
func (in *Interp) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		in.line++
		if err := in.exec(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", in.line, err)
		}
	}
	return sc.Err()
}

func (in *Interp) exec(raw string) error {
	line := strings.TrimSpace(raw)
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	if line == "" {
		return nil
	}
	f := strings.Fields(line)
	cmd, args := f[0], f[1:]
	switch cmd {
	case "store":
		return in.cmdStore(args)
	case "cache":
		return in.cmdCache(args)
	case "region":
		return in.cmdRegion(args)
	case "write":
		return in.cmdWrite(args)
	case "read":
		return in.cmdRead(args)
	case "expect":
		return in.cmdExpect(args, false)
	case "expectzero":
		return in.cmdExpect(args, true)
	case "copy":
		return in.cmdCopyMove(args, false)
	case "move":
		return in.cmdCopyMove(args, true)
	case "flush", "sync", "invalidate":
		return in.cmdDataControl(cmd, args)
	case "lock", "unlock":
		return in.cmdLock(cmd, args)
	case "destroy":
		return in.cmdDestroy(args)
	case "pageout":
		return in.cmdPageout(args)
	case "tree":
		fmt.Fprint(in.out, in.Tree())
		return nil
	case "stats":
		fmt.Fprintln(in.out, in.pvm.Stats())
		return nil
	case "policy":
		return in.cmdPolicy(args)
	case "harvest":
		in.pvm.PolicyTick()
		return nil
	case "clock":
		fmt.Fprintf(in.out, "simulated %v\n", in.clock.Elapsed())
		return nil
	case "trace":
		if len(args) != 1 || (args[0] != "on" && args[0] != "off") {
			return fmt.Errorf("trace: need on|off")
		}
		in.pvm.Tracer().SetEnabled(args[0] == "on")
		return nil
	case "hist":
		fmt.Fprint(in.out, in.pvm.Tracer().Snapshot().String())
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// cmdPolicy prints or switches the page-replacement policy; a switch
// migrates every resident page.
func (in *Interp) cmdPolicy(args []string) error {
	switch len(args) {
	case 0:
		fmt.Fprintf(in.out, "policy %s\n", in.pvm.Policy())
		return nil
	case 1:
		return in.pvm.SetPolicy(args[0])
	}
	return fmt.Errorf("policy: need at most one argument (%s)", strings.Join(policy.Names(), ", "))
}

func (in *Interp) cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("store: need KIND [dir=PATH] [faults=P] [seed=N]")
	}
	cfg := store.Config{Kind: args[0]}
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "dir="):
			cfg.Dir = strings.TrimPrefix(a, "dir=")
		case strings.HasPrefix(a, "faults="):
			p, err := strconv.ParseFloat(strings.TrimPrefix(a, "faults="), 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("store: faults= wants a probability in [0,1], got %q", a)
			}
			cfg.FaultProb = p
		case strings.HasPrefix(a, "seed="):
			v, err := parseNum(strings.TrimPrefix(a, "seed="))
			if err != nil {
				return err
			}
			cfg.Seed = v
		default:
			return fmt.Errorf("store: unknown option %q", a)
		}
	}
	return in.SetStore(cfg)
}

func (in *Interp) cmdCache(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("cache: need NAME")
	}
	name := args[0]
	if _, dup := in.caches[name]; dup {
		return fmt.Errorf("cache %q already exists", name)
	}
	pages := int64(0)
	tag := byte(0)
	preload := false
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "pages="):
			v, err := parseNum(strings.TrimPrefix(a, "pages="))
			if err != nil {
				return err
			}
			pages = v
		case strings.HasPrefix(a, "preload="):
			v, err := parseNum(strings.TrimPrefix(a, "preload="))
			if err != nil {
				return err
			}
			tag = byte(v)
			preload = true
		default:
			return fmt.Errorf("cache: unknown option %q", a)
		}
	}
	if preload {
		b, err := in.storeCfg.New(name, in.pvm.PageSize())
		if err != nil {
			return err
		}
		sg := seg.NewSegmentOn(name, b, in.clock)
		if pages == 0 {
			pages = 4
		}
		if err := sg.Store().WriteAt(0, patternBytes(tag, int(pages)*in.pvm.PageSize())); err != nil {
			return err
		}
		// Preload is setup, not workload: flush it through the engine so
		// the content is in the backend — not the writeback queue — when
		// the script starts faulting. Retry counters in a later
		// `stats` must not depend on writeback scheduling.
		if err := sg.Store().Sync(); err != nil {
			return err
		}
		in.caches[name] = in.pvm.CacheCreate(sg)
	} else {
		in.caches[name] = in.pvm.TempCacheCreate()
	}
	in.order = append(in.order, name)
	return nil
}

func (in *Interp) cmdRegion(args []string) error {
	if len(args) < 4 {
		return fmt.Errorf("region: need NAME CACHE ADDR PAGES")
	}
	name, cname := args[0], args[1]
	c, ok := in.caches[cname]
	if !ok {
		return fmt.Errorf("no cache %q", cname)
	}
	addr, err := parseNum(args[2])
	if err != nil {
		return err
	}
	pages, err := parseNum(args[3])
	if err != nil {
		return err
	}
	prot := gmi.ProtRW
	if len(args) > 4 && args[4] == "ro" {
		prot = gmi.ProtRead
	}
	r, err := in.ctx.RegionCreate(gmi.VA(addr), pages*int64(in.pvm.PageSize()), prot, c, 0)
	if err != nil {
		return err
	}
	in.regions[name] = regionInfo{region: r, cache: cname, addr: gmi.VA(addr), pages: pages}
	return nil
}

func (in *Interp) lookupVA(name string, off int64) (gmi.VA, error) {
	ri, ok := in.regions[name]
	if !ok {
		return 0, fmt.Errorf("no region %q", name)
	}
	return ri.addr + gmi.VA(off), nil
}

func (in *Interp) cmdWrite(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("write: need NAME OFF TAG LEN")
	}
	off, err1 := parseNum(args[1])
	tag, err2 := parseNum(args[2])
	n, err3 := parseNum(args[3])
	if err := firstErr(err1, err2, err3); err != nil {
		return err
	}
	va, err := in.lookupVA(args[0], off)
	if err != nil {
		return err
	}
	return in.ctx.Write(va, patternBytes(byte(tag), int(n)))
}

func (in *Interp) cmdRead(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("read: need NAME OFF LEN")
	}
	off, err1 := parseNum(args[1])
	n, err2 := parseNum(args[2])
	if err := firstErr(err1, err2); err != nil {
		return err
	}
	va, err := in.lookupVA(args[0], off)
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	if err := in.ctx.Read(va, buf); err != nil {
		return err
	}
	sum := 0
	for _, b := range buf {
		sum += int(b)
	}
	fmt.Fprintf(in.out, "read %s+%#x len=%d first=%#02x sum=%d\n", args[0], off, n, buf[0], sum)
	return nil
}

func (in *Interp) cmdExpect(args []string, zero bool) error {
	var off, tag, n int64
	var err error
	if zero {
		if len(args) != 3 {
			return fmt.Errorf("expectzero: need NAME OFF LEN")
		}
		off, err = parseNum(args[1])
		if err == nil {
			n, err = parseNum(args[2])
		}
	} else {
		if len(args) != 4 {
			return fmt.Errorf("expect: need NAME OFF TAG LEN")
		}
		off, err = parseNum(args[1])
		if err == nil {
			tag, err = parseNum(args[2])
		}
		if err == nil {
			n, err = parseNum(args[3])
		}
	}
	if err != nil {
		return err
	}
	va, err := in.lookupVA(args[0], off)
	if err != nil {
		return err
	}
	buf := make([]byte, n)
	if err := in.ctx.Read(va, buf); err != nil {
		return err
	}
	want := make([]byte, n)
	if !zero {
		want = patternBytes(byte(tag), int(n))
	}
	for i := range buf {
		if buf[i] != want[i] {
			return fmt.Errorf("expect %s+%#x: byte %d is %#02x, want %#02x",
				args[0], off, i, buf[i], want[i])
		}
	}
	return nil
}

func (in *Interp) cmdCopyMove(args []string, move bool) error {
	if len(args) != 5 {
		return fmt.Errorf("copy/move: need SRC SOFF DST DOFF PAGES")
	}
	src, ok := in.caches[args[0]]
	if !ok {
		return fmt.Errorf("no cache %q", args[0])
	}
	dst, ok := in.caches[args[2]]
	if !ok {
		return fmt.Errorf("no cache %q", args[2])
	}
	soff, err1 := parseNum(args[1])
	doff, err2 := parseNum(args[3])
	pages, err3 := parseNum(args[4])
	if err := firstErr(err1, err2, err3); err != nil {
		return err
	}
	ps := int64(in.pvm.PageSize())
	if move {
		return src.Move(dst, doff*ps, soff*ps, pages*ps)
	}
	return src.Copy(dst, doff*ps, soff*ps, pages*ps)
}

func (in *Interp) cmdDataControl(cmd string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s: need CACHE", cmd)
	}
	c, ok := in.caches[args[0]]
	if !ok {
		return fmt.Errorf("no cache %q", args[0])
	}
	switch cmd {
	case "flush":
		return c.Flush(0, 1<<62)
	case "sync":
		return c.Sync(0, 1<<62)
	default:
		return c.Invalidate(0, 1<<62)
	}
}

func (in *Interp) cmdLock(cmd string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s: need REGION", cmd)
	}
	ri, ok := in.regions[args[0]]
	if !ok {
		return fmt.Errorf("no region %q", args[0])
	}
	if cmd == "lock" {
		return ri.region.LockInMemory()
	}
	return ri.region.Unlock()
}

func (in *Interp) cmdDestroy(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("destroy: need NAME")
	}
	name := args[0]
	if ri, ok := in.regions[name]; ok {
		delete(in.regions, name)
		return ri.region.Destroy()
	}
	if c, ok := in.caches[name]; ok {
		delete(in.caches, name)
		return c.Destroy()
	}
	return fmt.Errorf("no region or cache %q", name)
}

func (in *Interp) cmdPageout(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("pageout: need N")
	}
	n, err := parseNum(args[0])
	if err != nil {
		return err
	}
	// PageOut counts steps, and a step may assign a swap segment
	// instead of freeing a frame; the frames freed are the evictions.
	ev := in.pvm.Stats().Evictions
	steps := in.pvm.PageOut(int(n))
	fmt.Fprintf(in.out, "pageout reclaimed %d pages (%d steps)\n", in.pvm.Stats().Evictions-ev, steps)
	return nil
}

// Tree renders the history tree over all live caches, naming the ones the
// script created and labelling internal ones (working objects, zombies).
func (in *Interp) Tree() string {
	names := map[gmi.Cache]string{}
	for n, c := range in.caches {
		names[c] = n
	}
	all := in.pvm.Caches()
	// Stable order: script names first (creation order), internals after.
	anon := 0
	label := func(c gmi.Cache) string {
		if n, ok := names[c]; ok {
			return n
		}
		info, _ := in.pvm.Describe(c)
		anon++
		switch {
		case info.Working:
			return fmt.Sprintf("(w%d)", anon)
		case info.Zombie:
			return fmt.Sprintf("(z%d)", anon)
		default:
			return fmt.Sprintf("(anon%d)", anon)
		}
	}
	for _, c := range all {
		if _, ok := names[c]; !ok {
			names[c] = label(c)
		}
	}
	children := map[gmi.Cache][]gmi.Cache{}
	var roots []gmi.Cache
	for _, c := range all {
		info, ok := in.pvm.Describe(c)
		if !ok {
			continue
		}
		if len(info.Parents) == 0 {
			roots = append(roots, c)
			continue
		}
		seen := map[gmi.Cache]bool{}
		for _, fr := range info.Parents {
			if !seen[fr.Parent] {
				seen[fr.Parent] = true
				children[fr.Parent] = append(children[fr.Parent], c)
			}
		}
	}
	byName := func(cs []gmi.Cache) {
		sort.Slice(cs, func(i, j int) bool { return names[cs[i]] < names[cs[j]] })
	}
	byName(roots)
	var b strings.Builder
	var draw func(c gmi.Cache, prefix string, isRoot, last bool)
	draw = func(c gmi.Cache, prefix string, isRoot, last bool) {
		connector, childPrefix := "├── ", prefix+"│   "
		if isRoot {
			connector, childPrefix = "", prefix
		} else if last {
			connector, childPrefix = "└── ", prefix+"    "
		}
		info, _ := in.pvm.Describe(c)
		extra := ""
		if info.History != nil {
			extra = fmt.Sprintf("  (history: %s)", names[info.History])
		}
		fmt.Fprintf(&b, "%s%s%-10s resident=%d%s\n", prefix, connector, names[c], len(info.Resident), extra)
		kids := children[c]
		byName(kids)
		for i, k := range kids {
			draw(k, childPrefix, false, i == len(kids)-1)
		}
	}
	for i, r := range roots {
		draw(r, "", true, i == len(roots)-1)
	}
	return b.String()
}

func parseNum(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func patternBytes(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}
