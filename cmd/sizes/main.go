// Command sizes regenerates the paper's Table 5 — the component-size
// inventory of the Chorus memory management — for this repository: lines
// of Go per component, split machine-independent vs machine-dependent,
// with the per-MMU-flavour breakdown the paper uses to argue that ports
// touch only a small machine-dependent part. Components the paper's table
// has are printed apart from this repository's extensions and from its
// tooling, so the comparison with the paper's figures stays honest.
//
// The inventory is exhaustive: every .go file of the repository (outside
// hidden directories) belongs to exactly one row. A file that no row
// claims, or that two rows claim, is an error and the command exits 1, so
// a new package cannot slip out of the yardstick unnoticed.
//
// Each row also carries a committed budget of Go (non-test) lines, and
// the command exits 1 when a row exceeds it. A change that must grow a
// row raises its budget here and says why in CHANGES.md; a change that
// shrinks a row lowers it.
//
// Usage: sizes [-root dir]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// component groups source files for one table row.
type component struct {
	name   string
	match  func(path string) bool
	budget int // most Go (non-test) lines the row may hold
}

// section is one block of rows, printed with its own subtotal.
type section struct {
	title string
	rows  []component
}

func underDir(dir string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, dir+string(filepath.Separator)) }
}

func exactFiles(files ...string) func(string) bool {
	set := map[string]bool{}
	for _, f := range files {
		set[f] = true
	}
	return func(p string) bool { return set[p] }
}

func anyOf(ms ...func(string) bool) func(string) bool {
	return func(p string) bool {
		for _, m := range ms {
			if m(p) {
				return true
			}
		}
		return false
	}
}

func internal(pkg string) func(string) bool { return underDir(filepath.Join("internal", pkg)) }

func mmuFile(name string) string { return filepath.Join("internal", "mmu", name) }

// mmuPaper holds the files of the paper's MMU rows; the rest of the mmu
// package is an extension row, so the paper rows keep exactly the file
// sets they always had.
var mmuPaper = exactFiles(mmuFile("mmu.go"), mmuFile("twolevel.go"), mmuFile("inverted.go"), mmuFile("flat.go"))

// layout is the table: the paper's machine-independent and MMU-dependent
// rows first, then what this repository adds.
var layout = []section{
	{"Machine-Independent Part (paper components)", []component{
		{"GMI (generic interface)", internal("gmi"), 423},
		{"PVM: machine-independent", anyOf(internal("core"), internal("phys")), 5531},
		{"Nucleus MM part (segment mgr, actors)", internal("nucleus"), 653},
		{"IPC + transit segment", internal("ipc"), 307},
		{"MIX process manager", internal("mix"), 555},
		{"Segment managers (mappers)", internal("seg"), 490},
	}},
	{"MMU-Dependent Part (paper components)", []component{
		{"MMU layer: shared", exactFiles(mmuFile("mmu.go")), 204},
		{"MMU: sun3 (two-level)", exactFiles(mmuFile("twolevel.go")), 262},
		{"MMU: pmmu (inverted)", exactFiles(mmuFile("inverted.go")), 230},
		{"MMU: i386 (flat)", exactFiles(mmuFile("flat.go")), 134},
	}},
	{"Extensions (not in the paper's Table 5)", []component{
		{"Backing store (engine, backends)", internal("store"), 2055},
		{"Replacement policies", internal("policy"), 265},
		{"MMU tests", func(p string) bool {
			return underDir(filepath.Join("internal", "mmu"))(p) && !mmuPaper(p)
		}, 0},
		{"Observability (spans, histograms)", internal("obs"), 809},
		{"DSM extension (coherence manager)", internal("dsm"), 340},
	}},
	{"Tooling, baselines and harnesses", []component{
		{"Cost model (simulated clock)", internal("cost"), 365},
		{"Mach baseline (comparison)", internal("machvm"), 1503},
		{"Trace-script interpreter", internal("script"), 611},
		{"GMI conformance suite", internal("conformance"), 0},
		{"Benchmark harness", internal("bench"), 1742},
		{"Goroutine leak check (tests)", internal("leakcheck"), 107},
		{"Commands (cmd/*)", underDir("cmd"), 942},
		{"Examples", underDir("examples"), 705},
		{"Repository benchmark (perfbench)", underDir("perfbench"), 1746},
		{"Root package (doc, benchmarks)", exactFiles("doc.go", "bench_test.go"), 23},
	}},
}

// claims returns the rows whose file set contains rel.
func claims(rel string) []string {
	var names []string
	for _, s := range layout {
		for _, c := range s.rows {
			if c.match(rel) {
				names = append(names, c.name)
			}
		}
	}
	return names
}

// tally counts code and test lines per row under root. It fails when a
// .go file belongs to no row or to more than one.
func tally(root string) (map[string][2]int, error) {
	counts := map[string][2]int{} // name -> {code+comments lines, test lines}
	var bad []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build outputs
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rows := claims(rel)
		switch len(rows) {
		case 0:
			bad = append(bad, rel+": assigned to no row")
			return nil
		case 1:
		default:
			bad = append(bad, fmt.Sprintf("%s: assigned to %d rows (%s)", rel, len(rows), strings.Join(rows, "; ")))
			return nil
		}
		n, err := countLines(path)
		if err != nil {
			return err
		}
		v := counts[rows[0]]
		if strings.HasSuffix(path, "_test.go") {
			v[1] += n
		} else {
			v[0] += n
		}
		counts[rows[0]] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("every .go file must belong to exactly one row:\n  %s", strings.Join(bad, "\n  "))
	}
	return counts, nil
}

// overBudget describes every row whose Go lines exceed its budget.
func overBudget(counts map[string][2]int) []string {
	var over []string
	for _, s := range layout {
		for _, c := range s.rows {
			if n := counts[c.name][0]; n > c.budget {
				over = append(over, fmt.Sprintf("%s: %d Go lines, budget %d", c.name, n, c.budget))
			}
		}
	}
	return over
}

func render(w io.Writer, counts map[string][2]int) {
	fmt.Fprintln(w, "Table 5 (this repository): memory-management component sizes")
	totC, totT := 0, 0
	for _, s := range layout {
		fmt.Fprintln(w)
		fmt.Fprintln(w, s.title)
		fmt.Fprintf(w, "%-42s %10s %10s\n", "Component", "Go(lines)", "tests")
		subC, subT := 0, 0
		for _, c := range s.rows {
			v := counts[c.name]
			fmt.Fprintf(w, "%-42s %10d %10d\n", c.name, v[0], v[1])
			subC += v[0]
			subT += v[1]
		}
		fmt.Fprintf(w, "%-42s %10d %10d\n", "Subtotal", subC, subT)
		totC += subC
		totT += subT
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-42s %10d %10d\n", "Total (every .go file)", totC, totT)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(The paper reports 1980 C++ lines for the MI PVM and ~800-1120")
	fmt.Fprintln(w, "per MMU port; the shape to check is that each MMU flavour is a")
	fmt.Fprintln(w, "small fraction of the machine-independent part.)")
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	counts, err := tally(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sizes:", err)
		os.Exit(1)
	}
	render(os.Stdout, counts)
	if over := overBudget(counts); len(over) > 0 {
		fmt.Fprintf(os.Stderr, "sizes: rows over their line budget (raise a budget only with a reason in CHANGES.md):\n  %s\n", strings.Join(over, "\n  "))
		os.Exit(1)
	}
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
