// blreport regenerates every artifact of the reproduction into a
// directory: all tables (1-7 plus the extension tables) as text, every
// graph (1-13) as TSV, and RESULTS.txt, the snapshot committed as
// docs/RESULTS.txt (whatever the flags; they shape only the table and
// graph files). One command to rebuild everything a reader needs to check
// the paper-vs-measured claims in EXPERIMENTS.md. Wall-clock timings go
// to stderr.
//
// Usage:
//
//	blreport -out results/ [-exact] [-trials 20000]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ballarus"
	"ballarus/internal/cli"
)

func main() {
	out := flag.String("out", "results", "output directory")
	exact := flag.Bool("exact", false, "run the subset experiment exactly")
	trials := flag.Int("trials", 20000, "sampled subset trials (ignored with -exact)")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	t := cli.Trials(*trials, *exact)
	e := ballarus.NewEvaluator()
	start := time.Now()

	write := func(name, content string) {
		if err := cli.WriteArtifact(*out, name, content); err != nil {
			fatal(err)
		}
	}

	tables := []struct {
		name string
		gen  func() (string, error)
	}{
		{"table1.txt", e.Table1},
		{"table2.txt", e.Table2},
		{"table3.txt", e.Table3},
		{"table4.txt", func() (string, error) { return e.Table4(t) }},
		{"table5.txt", e.Table5},
		{"table6.txt", e.Table6},
		{"table7.txt", e.Table7},
		{"ext_freq.txt", e.FreqTable},
		{"ext_crossprofile.txt", e.CrossProfileTable},
		{"ext_dynpred.txt", e.DynPredTable},
		{"ext_ablations.txt", e.AblationTable},
	}
	for _, tb := range tables {
		s, err := tb.gen()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", tb.name, err))
		}
		write(tb.name, s)
	}

	for n := 1; n <= 13; n++ {
		g, err := e.Graph(n, t)
		if err != nil {
			fatal(fmt.Errorf("graph %d: %w", n, err))
		}
		write(fmt.Sprintf("graph%02d.tsv", n), g.TSV())
	}
	snapshot, _, err := e.Snapshot(os.Stderr)
	if err != nil {
		fatal(fmt.Errorf("RESULTS.txt: %w", err))
	}
	write("RESULTS.txt", snapshot)
	fmt.Fprintf(os.Stderr, "report complete in %.1fs\n", time.Since(start).Seconds())
}

func fatal(err error) { cli.Exit("blreport", err) }
