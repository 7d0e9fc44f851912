// Command blindfl-bench regenerates the tables and figures of the BlindFL
// paper's evaluation on synthetic dataset stand-ins.
//
// Usage:
//
//	blindfl-bench -exp table5            # one experiment
//	blindfl-bench -exp fig12 -only w8a   # one figure, selected datasets
//	blindfl-bench -exp all -quick        # everything, reduced sizes
//
// Quick mode shrinks batch sizes, dimensions and epochs so the full suite
// finishes on a laptop; the shapes of the results (who wins, by what
// factor) are preserved. Absolute times are not comparable to the paper's
// GMP/OpenMP implementation on two 96-core servers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blindfl/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table5|table6|table7|table8|fig9|fig10|fig11|fig12|fig15|ablations|all")
	quick := flag.Bool("quick", false, "reduced sizes for a fast end-to-end run")
	only := flag.String("only", "", "comma-separated dataset filter for fig12 (e.g. w8a,higgs)")
	flag.Parse()

	filter := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(s)] = true
		}
	}

	run := func(name string) error {
		switch name {
		case "table5":
			bench.Table5(*quick).Print(os.Stdout)
		case "table6":
			bench.Table6(*quick).Print(os.Stdout)
		case "table7":
			bench.Table7(*quick).Print(os.Stdout)
		case "table8":
			bench.Table8(*quick).Print(os.Stdout)
		case "fig9":
			for _, t := range bench.Fig9(*quick) {
				t.Print(os.Stdout)
			}
		case "fig10":
			for _, t := range bench.Fig10(*quick) {
				t.Print(os.Stdout)
			}
		case "fig11":
			for _, t := range bench.Fig11(*quick) {
				t.Print(os.Stdout)
			}
		case "fig12":
			for _, t := range bench.Fig12(*quick, filter) {
				t.Print(os.Stdout)
			}
		case "fig15":
			bench.Fig15(*quick).Print(os.Stdout)
		case "ablations":
			for _, t := range bench.Ablations(*quick) {
				t.Print(os.Stdout)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp == "all" {
		for _, name := range []string{"table5", "table6", "table7", "table8",
			"fig9", "fig10", "fig11", "fig12", "fig15"} {
			if err := run(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
