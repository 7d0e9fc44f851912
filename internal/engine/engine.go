// Package engine is the single definition of the throughput-engine knobs
// shared by training, benchmarking and serving: ciphertext packing,
// chunk-streamed transfers, the textbook-exponentiation ablation, the
// persistent dot-table cache budget, and the blinding-pool / secret-key
// fast-path setup. core.Config, model.Hyper and bench.StepperOpts embed
// Options, and the blindfl-train / blindfl-bench / blindfl-serve CLIs all
// register their engine flags through RegisterFlags, so there is exactly one
// declaration of each knob instead of four drifting copies.
package engine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"strconv"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
)

// Options selects the throughput-engine features of a run. The zero value is
// the baseline engine: unpacked, whole-matrix transfers, signed/Straus
// exponentiation on, no table cache, no pools, no secret-key fast paths.
type Options struct {
	// Packed makes this party encrypt the weight pieces and derivatives it
	// ships packed (K fixed-point lanes per Paillier plaintext). The matrix
	// carries its kind, so the peer computes on whatever arrives and need
	// not set the same flag; a lane holds the integer its own ciphertext
	// would have, so results equal the unpacked protocol's bit for bit. The
	// sparse MatMul layer ignores it (its on-demand row-cache protocol is
	// bandwidth-bound, not blinding-bound).
	Packed bool

	// Stream makes this party send ciphertext matrices in bounded
	// row-chunks instead of whole, so it encrypts chunk i+1 while chunk i is
	// on the wire and the receiver decrypts chunk i−1. Sender-local like
	// Packed, and orthogonal to it: receivers take chunk heights from the
	// stream. Chunking changes message framing, not values.
	Stream bool

	// ChunkRows is the rows per chunk under Stream (0 = protocol default).
	ChunkRows int

	// Textbook disables the signed/Straus exponentiation engine on the
	// homomorphic matmul kernels, restoring the classic full-width MulPlain
	// paths (hetensor.SetTextbook). Process-wide: in-process parties share
	// the toggle and the most recently applied Options wins. It exists for
	// A/B ablation benchmarking; results are identical either way.
	Textbook bool

	// TableCacheMB budgets the process-wide persistent Straus dot-table
	// cache in MiB (hetensor.SetTableCacheBudget): window tables keyed by
	// ciphertext-matrix identity survive across kernel invocations, batches
	// and epochs. 0 disables the cache. Process-wide like Textbook, with the
	// same last-applied-wins caveat. Results are bit-identical with the
	// cache on or off; it only trades memory for recomputation.
	TableCacheMB int

	// Pool, when positive, registers a blinding-randomness pool of that
	// capacity for each key passed to SetupKeys, so every encryption site
	// takes the precomputed fast path. A pool already registered for a key
	// is replaced and closed. Pools stay registered for the process.
	Pool int

	// ShortExp, when positive, switches the registered pools to DJN-style
	// short-exponent blinding with exponents of that many bits (400 is the
	// standard choice): refills draw (hⁿ)^α for a fresh short α instead of a
	// full-width r^N. Requires Pool > 0.
	ShortExp int

	// NoFixedBase disables the Lim–Lee fixed-base comb tables on the
	// short-exp pool refills, restoring the plain big.Int.Exp refill as the
	// ablation baseline. The zero value (combs on) is the fast default.
	NoFixedBase bool

	// SecretOps registers the CRT secret-key fast paths for every key passed
	// to SetupKeys. In-process this accelerates both parties, which a real
	// two-party deployment cannot do — use it to measure the label-party
	// ceiling, not a deployment. Stays registered for the process.
	SecretOps bool

	// SpotCheck enables the label party's probabilistic decrypt spot-check:
	// for one sampled HE2SS conversion in four, one random row is
	// re-verified against the exact integer plaintext path, and mismatches
	// are counted in the protocol's StreamStats (and the serve runtime's
	// Stats). A run-integrity probe, not a throughput knob: it detects
	// corrupted or mis-assembled ciphertext arithmetic that in-range
	// bit-flips would otherwise turn into silent garbage. Label-party-local
	// — no protocol change, the feature party cannot tell it is on. Costs
	// one extra decrypt per sampled conversion (<5% on the packed fed
	// step).
	SpotCheck bool

	// ANCheck enables the AHEAD-style AN-coded residue check on the serve
	// path's plaintext share arithmetic: every exact-integer share cell is
	// recomputed mod a small prime alongside its big-integer accumulation
	// and verified before the share joins the decrypted homomorphic half.
	// The complement of SpotCheck — that probe re-verifies the *ciphertext*
	// side of a conversion, this one guards the *plaintext* side, which
	// otherwise trusts RAM. Outcomes are counted in StreamStats
	// (ANChecks/ANMismatches); a mismatch is typed transport.ErrCorrupt.
	// Party-local, no protocol change; cost is a cheap modular pass over
	// the share matrix.
	ANCheck bool
}

// RegisterFlags registers one CLI flag per engine knob on fs, with o's
// current values as defaults — the one flag surface shared by blindfl-train,
// blindfl-bench and blindfl-serve. The -fixedbase flag keeps its historical
// positive sense (default true) and writes NoFixedBase inverted.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.Packed, "packed", o.Packed, "ciphertext packing on the source-layer hot paths")
	fs.BoolVar(&o.Stream, "stream", o.Stream, "chunk-streamed ciphertext transfers (compute/comm overlap)")
	fs.IntVar(&o.ChunkRows, "chunk", o.ChunkRows, "rows per streamed chunk (0 = protocol default)")
	fs.BoolVar(&o.Textbook, "textbook", o.Textbook, "disable the signed/Straus exponentiation engine (ablation)")
	fs.IntVar(&o.TableCacheMB, "tablecache", o.TableCacheMB, "persistent dot-table cache budget in MiB (0 = off)")
	fs.IntVar(&o.Pool, "pool", o.Pool, "blinding-randomness pool capacity per key (0 = off)")
	fs.IntVar(&o.ShortExp, "shortexp", o.ShortExp, "short-exponent blinding bits on the pools (0 = full-width; needs -pool)")
	fs.Var(negatedBool{&o.NoFixedBase}, "fixedbase", "Lim–Lee fixed-base combs for short-exp pool refills (false = big.Int.Exp ablation)")
	fs.BoolVar(&o.SecretOps, "secretops", o.SecretOps, "CRT secret-key fast paths for homomorphic ops (in-process measurement aid)")
	fs.BoolVar(&o.SpotCheck, "spotcheck", o.SpotCheck, "probabilistic decrypt spot-checks on the label party (run-integrity probe)")
	fs.BoolVar(&o.ANCheck, "ancheck", o.ANCheck, "AN-coded residue checks on the serve path's plaintext share arithmetic (run-integrity probe)")
}

// negatedBool adapts the positive-sense -fixedbase flag onto the
// zero-value-is-on NoFixedBase field.
type negatedBool struct{ no *bool }

func (n negatedBool) IsBoolFlag() bool { return true }

func (n negatedBool) String() string {
	if n.no == nil {
		return "true"
	}
	return strconv.FormatBool(!*n.no)
}

func (n negatedBool) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*n.no = !v
	return err
}

// Fingerprint hashes the full option set (FNV-1a over the canonical %+v
// rendering) into one word. Run checkpoints embed it so a resume under a
// different engine configuration is refused up front: most knobs cannot
// change a trajectory, but Packed does, and a fingerprint check is cheaper
// and stricter than reasoning about which knobs are trajectory-neutral.
func (o Options) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", o)
	return h.Sum64()
}

// Validate checks cross-knob consistency.
func (o Options) Validate() error {
	if o.ShortExp > 0 && o.Pool <= 0 {
		return fmt.Errorf("engine: -shortexp requires -pool (short exponents only exist as pool refills)")
	}
	if o.ChunkRows < 0 || o.TableCacheMB < 0 || o.Pool < 0 || o.ShortExp < 0 {
		return fmt.Errorf("engine: negative option value")
	}
	return nil
}

// Apply installs the process-wide engine settings (the Textbook ablation
// toggle and the dot-table cache budget). Layer constructors call it through
// core.Config, so the knobs take effect wherever an Options enters the
// system; CLIs may also call it up front.
func (o Options) Apply() {
	hetensor.SetTextbook(o.Textbook)
	hetensor.SetTableCacheBudget(int64(o.TableCacheMB) << 20)
}

// SetupKeys installs the per-key engine state the options select — secret-key
// CRT fast paths and blinding pools (with short-exp / fixed-base refill
// configuration) — for each key pair, replacing and closing any pool already
// registered for it. Call once per process after key generation.
func (o Options) SetupKeys(keys ...*paillier.PrivateKey) {
	for _, sk := range keys {
		if o.SecretOps {
			paillier.RegisterSecretOps(sk)
		}
		if o.Pool <= 0 {
			continue
		}
		var poolOpts []paillier.PoolOption
		if o.ShortExp > 0 {
			poolOpts = append(poolOpts, paillier.WithShortExp(o.ShortExp), paillier.WithFixedBase(!o.NoFixedBase, 0))
		}
		old := paillier.PoolFor(&sk.PublicKey)
		paillier.RegisterPool(paillier.NewPool(&sk.PublicKey, o.Pool, 0, paillier.Rand, poolOpts...))
		if old != nil {
			old.Close()
		}
	}
}
