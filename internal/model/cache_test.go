package model

import (
	"testing"

	"blindfl/internal/data"
	"blindfl/internal/hetensor"
)

// TestTableCacheTrainingBitExact runs a multi-epoch federated training twice
// — persistent dot-table cache off, then on — and requires bit-identical
// losses and test metric: the cache may only trade memory for recomputation,
// never change a group element. It also asserts the cache actually worked
// (hits during training, eviction under the byte budget).
func TestTableCacheTrainingBitExact(t *testing.T) {
	ds := data.Generate(tinySpec("t-cache", 16, 16, 2, false), 4)
	h := tinyHyper()
	h.Epochs = 2

	run := func(cacheMB int) *History {
		t.Helper()
		h.TableCacheMB = cacheMB
		pa, pb := fedPipe(t, 700)
		hist, err := trainOn(LR, ds, h, Pair(pa, pb))
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}

	base := run(0)
	hetensor.ResetTableCache()
	cached := run(64)
	stats := hetensor.TableCacheStatsNow()
	hetensor.SetTableCacheBudget(0)
	hetensor.ResetTableCache()

	if stats.Hits == 0 {
		t.Fatalf("cache stats %+v: multi-epoch training should reuse tables", stats)
	}
	if len(base.Losses) != len(cached.Losses) {
		t.Fatalf("loss counts differ: %d vs %d", len(base.Losses), len(cached.Losses))
	}
	for i := range base.Losses {
		if base.Losses[i] != cached.Losses[i] {
			t.Fatalf("loss %d differs: cache off %v, on %v", i, base.Losses[i], cached.Losses[i])
		}
	}
	if base.TestMetric != cached.TestMetric {
		t.Fatalf("test metric differs: cache off %v, on %v", base.TestMetric, cached.TestMetric)
	}
}

// TestTableCacheTrainingBudgetRespected trains with a budget far below the
// working set: eviction must actually happen and accounting must stay under
// the budget, while training still matches the uncached run bit-for-bit.
func TestTableCacheTrainingBudgetRespected(t *testing.T) {
	ds := data.Generate(tinySpec("t-cache-b", 16, 16, 2, false), 5)
	h := tinyHyper()
	h.Epochs = 2 // two epochs of refreshed weight copies: ~2 MiB of tables

	h.TableCacheMB = 0
	pa, pb := fedPipe(t, 701)
	base, err := trainOn(LR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}

	hetensor.ResetTableCache()
	h.TableCacheMB = 1 // 1 MiB: far below a full epoch's table working set
	pa, pb = fedPipe(t, 701)
	tight, err := trainOn(LR, ds, h, Pair(pa, pb))
	if err != nil {
		t.Fatal(err)
	}
	stats := hetensor.TableCacheStatsNow()
	hetensor.SetTableCacheBudget(0)
	hetensor.ResetTableCache()

	if stats.Evicted == 0 {
		t.Fatalf("cache stats %+v: 1 MiB budget should evict during an epoch", stats)
	}
	if stats.Bytes > 1<<20 {
		t.Fatalf("cache stats %+v: bytes exceed the 1 MiB budget", stats)
	}
	for i := range base.Losses {
		if base.Losses[i] != tight.Losses[i] {
			t.Fatalf("loss %d differs under eviction pressure: %v vs %v", i, base.Losses[i], tight.Losses[i])
		}
	}
}
