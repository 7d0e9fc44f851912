// Command benchmark is the repository's benchmark: five named workloads that
// drive the real stack (model → core → protocol → hetensor → paillier over a
// transport.Conn, and serve → model.Predictor) under one fixed deployment
// configuration, print end-to-end metrics from an untraced run and per-layer
// metrics from a traced one, and check that the program's outputs are correct.
//
//	go run ./benchmark --workload dense_2048 --seed 1 --seconds 15 --trace 0
//	go run ./benchmark                         # all workloads, both runs each
//	go run ./benchmark -compare a.json b.json  # two result files, per (metric, workload)
//
// README.md in this directory explains every workload, constant and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runSeconds is the window one run measures, the value BENCHMARK.json records.
const runSeconds = 15

// outDir receives what a run leaves behind: traces and the suite's results.
// It is relative to the directory the command runs from — the repository root.
const outDir = "benchmark/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "drives data generation, model init, the session seed, batch order and request order")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out     = flag.String("out", filepath.Join(outDir, "results.json"), "where the all-workloads run writes its results")
		result  = flag.String("result", "", "also write this run's full result as JSON here (used by the all-workloads run)")
		regen   = flag.Bool("write-golden", false, "regenerate benchmark/golden/ from seed 1 and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(goMaxProcs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *regen:
		if err := writeGolden(); err != nil {
			fatal("%v", err)
		}
	case *name == "":
		os.Exit(runSuite(*seed, *seconds, *out))
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal("--seconds must be at least 1 and --trace 0 or 1")
		}
		o := defaultOpts(*seed, *seconds, *trace == 1)
		if o.Trace {
			o.TraceOut = filepath.Join(outDir, w.Name+".trace.json")
		}
		res := runWorkload(w, o)
		fmt.Print(report(res))
		if *result != "" {
			if err := writeJSON(*result, res); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Println(contractLine(res))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeGolden records seed 1's losses for every training workload. Losses do
// not depend on the keys, so the reduced-scale keys produce them quickly.
func writeGolden() error {
	for _, w := range workloads {
		if w.Serve {
			continue
		}
		losses, err := referenceLosses(w, 1, goldenSteps)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		path := filepath.Join("benchmark", "golden", w.Name+".json")
		if err := writeJSON(path, goldenFile{Workload: w.Name, Seed: 1, Losses: losses}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d steps)\n", path, len(losses))
	}
	return nil
}
