// Credit-risk scoring: the paper's Fintech motivating workload.
//
// A bank (Party B) holds repayment labels, account aggregates and two
// categorical fields; a social platform (Party A) holds sparse behavioural
// features and two categorical profile fields for an overlapping user set.
// The parties first align their user IDs with PSI, then train a Wide & Deep
// model: a sparse MatMul source layer over the numeric features (wide) and
// an Embed-MatMul source layer over the categorical fields (deep).
//
//	go run ./examples/creditrisk
package main

import (
	"fmt"
	"log"

	"blindfl/internal/data"
	"blindfl/internal/model"
	"blindfl/internal/protocol"
)

func main() {
	// The bank and the platform each observe a superset of users; only the
	// PSI intersection trains the model.
	spec := data.Spec{Name: "creditrisk", Feats: 200, AvgNNZ: 16, Classes: 2,
		Train: 700, Test: 200, CatFields: 4, CatVocab: 24, Margin: 12}
	ds := data.Generate(spec, 11)

	// PSI alignment: the platform knows users [0, 600), the bank knows
	// [100, 700); both learn only the 500-user overlap, in matching order.
	idsA := make([]string, 600)
	idsB := make([]string, 600)
	for i := range idsA {
		idsA[i] = fmt.Sprintf("user-%04d", i)
		idsB[i] = fmt.Sprintf("user-%04d", i+100)
	}
	subA := ds.TrainA.Batch(seq(0, 600))
	subB := ds.TrainB.Batch(seq(100, 700))
	alignedA, alignedB, alignedY := data.Align(idsA, idsB, subA, subB, ds.TrainY[100:700])
	fmt.Printf("PSI: platform holds %d users, bank holds %d, intersection %d\n",
		len(idsA), len(idsB), alignedA.Rows())

	train := &data.Dataset{
		Spec:   spec,
		TrainA: alignedA, TrainB: alignedB, TrainY: alignedY,
		TestA: ds.TestA, TestB: ds.TestB, TestY: ds.TestY,
	}

	h := model.DefaultHyper()
	h.Epochs = 4
	h.Batch = 64
	h.EmbDim = 4
	h.Hidden = []int{8}
	h.LR = 0.1
	// Plain SGD for the demo: with momentum enabled the sparse wide part
	// uses lazy momentum (untouched rows keep a stale buffer), which needs a
	// longer schedule to match the dense baseline.
	h.Momentum = 0

	skA, skB := protocol.TestKeys()
	pa, pb, err := protocol.Pipe(skA, skB, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training federated Wide & Deep risk model...")
	fed, err := model.Trainer{Kind: model.WDL, Hyper: h}.Train(train, model.Pair(pa, pb))
	if err != nil {
		log.Fatal(err)
	}

	bankOnly := model.TrainPartyB(model.WDL, train, h)
	fmt.Printf("risk model AUC — federated (bank+platform): %.4f | bank alone: %.4f\n",
		fed.TestMetric, bankOnly.TestMetric)
	fmt.Println("(4-epoch demo schedule; longer training widens the federated advantage)")
	fmt.Println("the platform's raw features, weights and labels never left either party in the clear")
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
