// blgraphs regenerates the paper's Graphs 1-13 as TSV series.
//
// Usage:
//
//	blgraphs -graph 4          # one graph as TSV
//	blgraphs -graph 4 -summary # just the headline numbers
//	blgraphs                   # summaries of all graphs
package main

import (
	"flag"
	"fmt"

	"ballarus"
	"ballarus/internal/cli"
)

func main() {
	graphN := flag.Int("graph", 0, "graph number (1-13); 0 = all summaries")
	summary := flag.Bool("summary", false, "print only headline numbers")
	flag.Parse()

	e := ballarus.NewEvaluator()
	emit := func(n int, summaryOnly bool) {
		g, err := e.Graph(n)
		if err != nil {
			fatal(fmt.Errorf("graph %d: %w", n, err))
		}
		if summaryOnly {
			fmt.Println(g.Summary())
		} else {
			fmt.Println(g.TSV())
		}
	}
	if *graphN != 0 {
		if *graphN < 1 || *graphN > 13 {
			cli.Usage("blgraphs [-graph 1-13] [-summary]")
		}
		emit(*graphN, *summary)
		return
	}
	for n := 1; n <= 13; n++ {
		emit(n, true)
	}
}

func fatal(err error) { cli.Exit("blgraphs", err) }
