package core

import (
	"testing"
	"time"
)

func TestCacheStudyMonotoneInCacheSize(t *testing.T) {
	res, err := RunCacheStudy(CacheStudyConfig{
		Objects:     500,
		Requests:    20000,
		ObjectBytes: 8 << 10,
		CacheFracs:  []float64{0.02, 0.1, 0.3},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].HitRate < res.Points[i-1].HitRate {
			t.Errorf("hit rate not monotone in cache size: %v", res.Points)
		}
	}
	// With Zipf popularity, even a 10% cache offloads a large share.
	if res.Points[1].HitRate < 0.4 {
		t.Errorf("10%% cache hit rate = %.3f, want substantial offload", res.Points[1].HitRate)
	}
	// Hit and byte-hit rates agree for uniform object sizes.
	for _, p := range res.Points {
		if diff := p.HitRate - p.ByteHitRate; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("hit (%v) and byte-hit (%v) rates should match for equal sizes", p.HitRate, p.ByteHitRate)
		}
	}
}

func TestCacheStudyLessSkewLessBenefit(t *testing.T) {
	skewed, err := RunCacheStudy(CacheStudyConfig{
		Objects: 500, Requests: 15000, ObjectBytes: 4 << 10,
		ZipfExponent: 1.3, CacheFracs: []float64{0.05}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := RunCacheStudy(CacheStudyConfig{
		Objects: 500, Requests: 15000, ObjectBytes: 4 << 10,
		ZipfExponent: 0.4, CacheFracs: []float64{0.05}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Points[0].HitRate <= flat.Points[0].HitRate {
		t.Errorf("skewed popularity (%.3f) should beat flat (%.3f)",
			skewed.Points[0].HitRate, flat.Points[0].HitRate)
	}
}

func TestTieringStudySavesCost(t *testing.T) {
	res, err := RunTieringStudy(TieringStudyConfig{
		Objects: 800, ObjectBytes: 16 << 10,
		ReadProb: 0.2, // Fig 9: ~80% of uploads never retrieved in-week
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saving <= 0.2 {
		t.Errorf("tiering saving = %.3f, want substantial for a backup workload", res.Saving)
	}
	if res.TieredCost >= res.HotOnlyCost {
		t.Error("tiered cost should be below hot-only")
	}
	st := res.Stats
	if st.Demotions == 0 {
		t.Error("no demotions happened")
	}
	// Reads promote: some promotions should occur with ReadProb 0.2.
	if st.Promotions == 0 {
		t.Error("no promotions despite reads")
	}
	if res.ColdShareEnd < 0.5 {
		t.Errorf("cold share at horizon = %.3f, want most objects cold", res.ColdShareEnd)
	}
}

func TestTieringStudyHighReadRateLessSaving(t *testing.T) {
	cold, err := RunTieringStudy(TieringStudyConfig{Objects: 400, ReadProb: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunTieringStudy(TieringStudyConfig{Objects: 400, ReadProb: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Saving >= cold.Saving {
		t.Errorf("frequently-read data (saving %.3f) should benefit less than cold data (%.3f)",
			hot.Saving, cold.Saving)
	}
}

func TestTieringStudyDefaults(t *testing.T) {
	cfg := TieringStudyConfig{}.withDefaults()
	if cfg.Objects == 0 || cfg.ColdAfter != 24*time.Hour || cfg.ColdPrice >= cfg.HotPrice {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

// TestTieringStudySeed1 pins the numbers mcsanalyze -figure whatif
// prints: the model's seed-1 outcome at the default configuration.
func TestTieringStudySeed1(t *testing.T) {
	res, err := RunTieringStudy(TieringStudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := TierStats{
		Demotions: 2274, Promotions: 338, ColdReads: 338, HotReads: 83,
		HotByteHours: 7.38459648e9, ColdByteHours: 1.463549952e10,
	}
	if res.Stats != want {
		t.Errorf("stats = %+v, want %+v", res.Stats, want)
	}
	// Cold at 0.4x the hot price: 7.38459648e9 + 0.4 x 1.463549952e10.
	if res.TieredCost != 1.3238796288e10 || res.HotOnlyCost != 2.2020096e10 {
		t.Errorf("cost %v tiered, %v hot-only; want 1.3238796288e10, 2.2020096e10", res.TieredCost, res.HotOnlyCost)
	}
	if res.Saving != 0.3987857142857143 || res.ColdShareEnd != 0.968 {
		t.Errorf("saving %v, cold share %v; want 0.3987857142857143, 0.968", res.Saving, res.ColdShareEnd)
	}
}

// TestTieringStudyDemotionPromotion checks the model's daily order on
// configurations with one outcome: with ReadProb 1 over two days every
// object is read on day 1. Idle 24 h at the day-1 check, it is demoted
// before that read when ColdAfter is 12 h (the read promotes it, and
// it is demoted again on day 2), and stays hot when ColdAfter is 36 h.
// Residency accrues before the check, so no day is spent cold.
func TestTieringStudyDemotionPromotion(t *testing.T) {
	const objects, size = 10, 1000
	for _, tc := range []struct {
		coldAfter time.Duration
		want      TierStats
	}{
		{12 * time.Hour, TierStats{Demotions: 20, Promotions: 10, ColdReads: 10, HotByteHours: 2 * 24 * size * objects}},
		{36 * time.Hour, TierStats{HotReads: 10, HotByteHours: 2 * 24 * size * objects}},
	} {
		res, err := RunTieringStudy(TieringStudyConfig{
			Objects: objects, ObjectBytes: size, ReadProb: 1, ColdAfter: tc.coldAfter, Days: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != tc.want {
			t.Errorf("ColdAfter %v: stats = %+v, want %+v", tc.coldAfter, res.Stats, tc.want)
		}
	}
}
