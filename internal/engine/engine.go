// Package engine is the single definition of the run-level engine options
// shared by training and serving: the persistent dot-table cache budget, the
// blinding-pool setup and the run-integrity probes. Lane packing and
// chunk-streamed transfers are not options: every source layer packs what it
// encrypts and every producing send streams at protocol.DefaultChunkRows.
// model.Hyper embeds Options, and the blindfl-train / blindfl-serve CLIs
// register their engine flags through RegisterFlags, so there is exactly one
// declaration of each knob.
package engine

import (
	"flag"
	"fmt"
	"hash/fnv"

	"blindfl/internal/hetensor"
	"blindfl/internal/paillier"
)

// Options selects the engine features of a run. The zero value is the
// deployed engine without a table cache, pools or probes.
type Options struct {
	// Packed and Stream are ignored: packing and streaming are what the
	// engine always does. They remain only because the frozen benchmark
	// (benchmark/drive.go) still sets them, and go when it is re-recorded.
	// Neither enters Fingerprint or Validate.
	Packed, Stream bool

	// TableCacheMB budgets the process-wide persistent Straus dot-table
	// cache in MiB (hetensor.SetTableCacheBudget): window tables keyed by
	// ciphertext-matrix identity survive across kernel invocations, batches
	// and epochs. 0 disables the cache. Process-wide: in-process parties
	// share the budget and the most recently applied Options wins. Results
	// are bit-identical with the cache on or off; it only trades memory for
	// recomputation.
	TableCacheMB int

	// Pool, when positive, registers a blinding-randomness pool of that
	// capacity for each key passed to SetupKeys, so every encryption site
	// takes the precomputed fast path. A pool already registered for a key
	// is replaced and closed. Pools stay registered for the process.
	Pool int

	// ShortExp, when positive, switches the registered pools to DJN-style
	// short-exponent blinding with exponents of that many bits (400 is the
	// standard choice): refills draw (hⁿ)^α for a fresh short α instead of a
	// full-width r^N, taken from Lim–Lee fixed-base comb tables.
	// Requires Pool > 0.
	ShortExp int

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
// current values as defaults — the one flag surface shared by blindfl-train
// and blindfl-serve.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.TableCacheMB, "tablecache", o.TableCacheMB, "persistent dot-table cache budget in MiB (0 = off)")
	fs.IntVar(&o.Pool, "pool", o.Pool, "blinding-randomness pool capacity per key (0 = off)")
	fs.IntVar(&o.ShortExp, "shortexp", o.ShortExp, "short-exponent blinding bits on the pools (0 = full-width; needs -pool)")
	fs.BoolVar(&o.SpotCheck, "spotcheck", o.SpotCheck, "probabilistic decrypt spot-checks on the label party (run-integrity probe)")
	fs.BoolVar(&o.ANCheck, "ancheck", o.ANCheck, "AN-coded residue checks on the serve path's plaintext share arithmetic (run-integrity probe)")
}

// Fingerprint hashes the option set (FNV-1a over the canonical %+v
// rendering, the ignored Packed and Stream cleared) into one word. Run
// checkpoints and shard set-ups embed it so a resume or a worker under a
// different engine configuration is refused up front: no knob changes a
// trajectory, but a fingerprint check is cheaper and stricter than reasoning
// about that knob by knob.
func (o Options) Fingerprint() uint64 {
	o.Packed, o.Stream = false, false
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", o)
	return h.Sum64()
}

// Validate checks cross-knob consistency.
func (o Options) Validate() error {
	if o.ShortExp > 0 && o.Pool <= 0 {
		return fmt.Errorf("engine: -shortexp requires -pool (short exponents only exist as pool refills)")
	}
	if o.TableCacheMB < 0 || o.Pool < 0 || o.ShortExp < 0 {
		return fmt.Errorf("engine: negative option value")
	}
	return nil
}

// Apply installs the process-wide engine setting, the dot-table cache budget.
// The model package calls it wherever a Hyper meets a party set, so the knob
// takes effect wherever an Options enters the system; CLIs may also call it
// up front.
func (o Options) Apply() {
	hetensor.SetTableCacheBudget(int64(o.TableCacheMB) << 20)
}

// SetupKeys installs the per-key engine state the options select — blinding
// pools, with short-exp refills when ShortExp is set — for each key pair,
// replacing and closing any pool already registered for it. Call once per
// process after key generation.
func (o Options) SetupKeys(keys ...*paillier.PrivateKey) {
	for _, sk := range keys {
		if o.Pool <= 0 {
			continue
		}
		var poolOpts []paillier.PoolOption
		if o.ShortExp > 0 {
			poolOpts = append(poolOpts, paillier.WithShortExp(o.ShortExp))
		}
		old := paillier.PoolFor(&sk.PublicKey)
		paillier.RegisterPool(paillier.NewPool(&sk.PublicKey, o.Pool, 0, paillier.Rand, poolOpts...))
		if old != nil {
			old.Close()
		}
	}
}
