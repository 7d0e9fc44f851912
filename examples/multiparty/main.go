// Multi-party BlindFL (Algorithm 3 of the paper's appendix): three feature
// parties and one label party train a federated logistic model over a
// k-session protocol.Group — the whole runtime (column split, per-session
// handshakes, concurrent scheduling, activation aggregation, teardown) lives
// behind model.Trainer.Train.
//
//	go run ./examples/multiparty
package main

import (
	"flag"
	"fmt"
	"log"

	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/paillier"
	"blindfl/internal/protocol"
)

func main() {
	short := flag.Bool("short", false, "smoke-test sizes (one epoch, small split) for CI")
	flag.Parse()

	const parties = 3 // feature parties; the label party drives one session each
	spec := data.Spec{Name: "multiparty", Feats: 40, AvgNNZ: 40, Classes: 2,
		Train: 384, Test: 128, Margin: 4}
	h := model.DefaultHyper()
	h.Epochs, h.Batch, h.LR, h.Seed = 3, 64, 0.1, 17
	if *short {
		spec.Train, spec.Test = 128, 64
		h.Epochs = 1
	}
	ds := data.Generate(spec, h.Seed)

	// One key pair per session: every feature party is its own trust domain.
	// The demo reuses the cached test key for all three to skip keygen.
	skA, skB := protocol.TestKeys()
	as, g, err := protocol.GroupPipe([]*paillier.PrivateKey{skA, skA, skA}, skB, h.Seed)
	if err != nil {
		log.Fatal(err)
	}
	hist, err := model.Trainer{Kind: model.LR, Hyper: h}.Train(ds, model.PartySet{As: as, B: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final loss %.4f, test AUC with %d feature parties: %.4f\n",
		hist.Losses[len(hist.Losses)-1], parties, hist.TestMetric)
}
