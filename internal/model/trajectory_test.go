package model

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
)

// Recorded trajectories: testdata/trajectories.txt holds, as hex floats, the
// per-step losses and the test logits of the configurations below. The file
// was recorded at the last commit that still had separate pair and k-party
// training bodies (a63ec6d, `go test ./internal/model -run
// TestRecordedTrajectories -update-trajectories`), so it pins the trajectories
// across the collapse into one body — not only across the paths of one tree.
// lr-sparse-20/k1 (20 momentum steps of the sparse layer) was added to it at
// 2e20928, the last commit whose sparse layer refreshed ⟦V_A⟧ after every step
// and converted one value per ciphertext, the same way.
// Every value is independent of the Paillier keys (fresh per process) and of
// the engine configuration, so one record serves both engine settings: the
// engine-off run writes it and the engine-on run must already equal it.
var updateTrajectories = flag.Bool("update-trajectories", false, "rewrite testdata/trajectories.txt from this tree's runs")

const trajectoryFile = "testdata/trajectories.txt"

type trajectoryCase struct {
	name   string
	kind   Kind
	spec   data.Spec
	k      int
	epochs int
}

func trajectoryCases() []trajectoryCase {
	return []trajectoryCase{
		{"lr-dense/k1", LR, tinySpec("t-traj-lr", 16, 16, 2, false), 1, 2},
		{"lr-sparse/k1", LR, tinySpec("t-traj-sp", 60, 6, 2, false), 1, 2},
		{"lr-sparse-20/k1", LR, tinySpec("t-traj-sp20", 120, 6, 2, false), 1, 4},
		{"mlp/k1", MLP, tinySpec("t-traj-mlp", 16, 16, 2, false), 1, 2},
		{"wdl/k1", WDL, tinySpec("t-traj-wdl", 8, 8, 2, true), 1, 1},
		{"lr-dense/k3", LR, tinySpec("t-traj-lr3", 16, 16, 2, false), 3, 2},
		{"mlp/k3", MLP, tinySpec("t-traj-mlp3", 16, 16, 2, false), 3, 2},
	}
}

// engineOn switches the rest of the deployed engine on for a test and
// returns the hyper-parameters carrying it: the persistent dot-table cache
// and blinding pools for both test keys.
func engineOn(t *testing.T, h Hyper) Hyper {
	t.Helper()
	h.Pool, h.TableCacheMB = 64, 64
	skA, skB := protocol.TestKeys()
	h.Options.SetupKeys(skA, skB)
	t.Cleanup(func() {
		for _, sk := range []*paillier.PrivateKey{skA, skB} {
			if p := paillier.PoolFor(&sk.PublicKey); p != nil {
				paillier.UnregisterPool(&sk.PublicKey)
				p.Close()
			}
		}
		hetensor.SetTableCacheBudget(0)
		hetensor.ResetTableCache()
	})
	return h
}

func formatTrajectory(hist *History) (losses, logits string) {
	hex := func(vs []float64) string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = strconv.FormatFloat(v, 'x', -1, 64)
		}
		return strings.Join(out, " ")
	}
	return hex(hist.Losses), hex(hist.TestLogits.Data)
}

// readTrajectories parses the recorded file into name → {losses, logits}.
func readTrajectories(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(trajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][2]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var name string
	for sc.Scan() {
		key, rest, _ := strings.Cut(sc.Text(), " ")
		switch key {
		case "case":
			name = rest
		case "losses":
			out[name] = [2]string{rest, out[name][1]}
		case "logits":
			out[name] = [2]string{out[name][0], rest}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecordedTrajectories(t *testing.T) {
	want := map[string][2]string{}
	if !*updateTrajectories {
		want = readTrajectories(t)
	}
	for _, tc := range trajectoryCases() {
		for _, engine := range []string{"engine-off", "engine-on"} {
			t.Run(tc.name+"/"+engine, func(t *testing.T) {
				// Both settings run the packed engine, so they cost alike: under
				// -race every run takes 1–8 s but mlp/k3's two (7 and 10 s),
				// which -short skips.
				if testing.Short() && tc.k > 1 && tc.kind == MLP {
					t.Skip("mlp/k3 skipped in -short")
				}
				h := tinyHyper()
				h.Epochs = tc.epochs
				if engine == "engine-on" {
					h = engineOn(t, h)
				}
				ds := data.Generate(tc.spec, 41)
				as, g := fedGroup(t, tc.k, 540)
				hist, err := Trainer{Kind: tc.kind, Hyper: h}.Train(ds, PartySet{As: as, B: g})
				if err != nil {
					t.Fatal(err)
				}
				losses, logits := formatTrajectory(hist)
				rec, ok := want[tc.name]
				if !ok && *updateTrajectories {
					want[tc.name] = [2]string{losses, logits}
					return
				}
				if !ok {
					t.Fatalf("no recorded trajectory for %s", tc.name)
				}
				if losses != rec[0] {
					t.Fatalf("losses moved off the recorded trajectory:\n got %s\nwant %s", losses, rec[0])
				}
				if logits != rec[1] {
					t.Fatalf("test logits moved off the recorded trajectory:\n got %s\nwant %s", logits, rec[1])
				}
			})
		}
	}
	if *updateTrajectories && !t.Failed() {
		var record strings.Builder
		record.WriteString("# per-step losses and test logits, hex floats; see trajectory_test.go\n")
		for _, tc := range trajectoryCases() {
			fmt.Fprintf(&record, "case %s\nlosses %s\nlogits %s\n", tc.name, want[tc.name][0], want[tc.name][1])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryFile, []byte(record.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
