// bltables regenerates the paper's Tables 1-7 from the benchmark suite.
//
// Usage:
//
//	bltables            # all tables (Table 4 over all 705,432 subset trials)
//	bltables -table 6   # one table
//	bltables -ext       # extension tables (profile estimation,
//	                    # cross-dataset profiles, ablations)
package main

import (
	"flag"
	"fmt"

	"ballarus"
	"ballarus/internal/cli"
)

func main() {
	tableN := flag.Int("table", 0, "table number (1-7); 0 = all")
	ext := flag.Bool("ext", false, "print the extension tables instead")
	flag.Parse()

	e := ballarus.NewEvaluator()
	if *ext {
		for _, gen := range []func() (string, error){
			e.FreqTable, e.CrossProfileTable, e.DynPredTable, e.AblationTable,
		} {
			s, err := gen()
			if err != nil {
				fatal(err)
			}
			fmt.Println(s)
		}
		return
	}
	gens := map[int]func() (string, error){
		1: e.Table1,
		2: e.Table2,
		3: e.Table3,
		4: func() (string, error) { return e.Table4(0) },
		5: e.Table5,
		6: e.Table6,
		7: e.Table7,
	}
	emit := func(n int) {
		s, err := gens[n]()
		if err != nil {
			fatal(fmt.Errorf("table %d: %w", n, err))
		}
		fmt.Println(s)
	}
	if *tableN != 0 {
		if _, ok := gens[*tableN]; !ok {
			cli.Usage("bltables [-table 1-7] [-ext]")
		}
		emit(*tableN)
		return
	}
	for n := 1; n <= 7; n++ {
		emit(n)
	}
}

func fatal(err error) { cli.Exit("bltables", err) }
