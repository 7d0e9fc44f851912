// Package model assembles BlindFL's evaluated model families — LR, MLR,
// MLP, WDL and DLRM (paper Sec. 7.1) — in three flavours:
//
//   - federated: source layers from internal/core under a plaintext top
//     model at Party B (Trainer);
//   - NonFed-collocated: the same architecture trained in plaintext on the
//     horizontally concatenated features of both parties (TrainCollocated);
//   - NonFed-PartyB: the plaintext architecture on Party B's features only
//     (TrainPartyB).
//
// The three flavours are the systems compared in the paper's Figure 12 and
// Figure 15 lossless-property experiments.
package model

import (
	"fmt"

	"blindfl/internal/engine"
	"blindfl/internal/tensor"
)

// Kind selects a model family.
type Kind string

// The five evaluated model families.
const (
	LR   Kind = "lr"
	MLR  Kind = "mlr"
	MLP  Kind = "mlp"
	WDL  Kind = "wdl"
	DLRM Kind = "dlrm"
)

// ParseKind validates a model name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case LR, MLR, MLP, WDL, DLRM:
		return Kind(s), nil
	}
	return "", fmt.Errorf("model: unknown kind %q (want lr|mlr|mlp|wdl|dlrm)", s)
}

// UsesEmbedding reports whether the family has a categorical deep part.
func (k Kind) UsesEmbedding() bool { return k == WDL || k == DLRM }

// Hyper carries the training hyper-parameters. The paper's protocol
// (Sec. 7.1) uses LR 0.05, batch 128, embedding dim 8, momentum 0.9. The
// engine knobs (Packed, Stream, Textbook, TableCacheMB, …) live on the
// embedded engine.Options — the single declaration shared with core.Config
// and bench.StepperOpts.
type Hyper struct {
	LR       float64
	Momentum float64
	Batch    int
	Epochs   int
	Hidden   []int // hidden layer widths for MLP and the WDL/DLRM deep part
	EmbDim   int
	Seed     int64

	engine.Options
}

// DefaultHyper returns the paper's protocol settings.
func DefaultHyper() Hyper {
	return Hyper{LR: 0.05, Momentum: 0.9, Batch: 128, Epochs: 10, Hidden: []int{16}, EmbDim: 8, Seed: 1}
}

// History records one training run.
type History struct {
	Losses     []float64 // training loss per iteration
	TestMetric float64
	MetricName string // "auc" or "accuracy"
	TestLogits *tensor.Dense

	// LostSessions[i] reports that session i's connection died mid-run and
	// the run finished on the survivors (Trainer.ContinueOnLoss). Nil when
	// every session survived. A run that lost sessions is still a valid
	// training run over the surviving parties' features, but its metrics are
	// not comparable to a full-group run — callers must surface the loss.
	LostSessions []bool
}

// outDim returns the logit width for a class count.
func outDim(classes int) int {
	if classes == 2 {
		return 1
	}
	return classes
}

// metricName returns the evaluation metric the paper reports for a class
// count: AUC for binary tasks, accuracy for multi-class.
func metricName(classes int) string {
	if classes == 2 {
		return "auc"
	}
	return "accuracy"
}
