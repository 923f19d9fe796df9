package core

import (
	"context"
	"fmt"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/storage"
)

// CacheStudyConfig parameterizes the paper's web-cache what-if
// (§3.1.4: "it would be necessary to monitor the popularity of
// downloads ... if a handful of popular files dominate, web cache
// proxies can reduce server workload"). The dataset carries no file
// identifiers (the paper's stated limitation), so popularity is an
// assumption made explicit here: object requests follow a Zipf law.
type CacheStudyConfig struct {
	Objects      int       // catalog size (default 2000)
	Requests     int       // download requests to replay (default 50000)
	ZipfExponent float64   // popularity skew (default 1.1)
	ObjectBytes  int       // object size in bytes (default 256 KB)
	CacheFracs   []float64 // cache sizes as fractions of the catalog bytes
	Seed         uint64
}

func (c CacheStudyConfig) withDefaults() CacheStudyConfig {
	if c.Objects <= 0 {
		c.Objects = 2000
	}
	if c.Requests <= 0 {
		c.Requests = 50000
	}
	if c.ZipfExponent <= 0 {
		c.ZipfExponent = 1.1
	}
	if c.ObjectBytes <= 0 {
		c.ObjectBytes = 256 << 10
	}
	if len(c.CacheFracs) == 0 {
		c.CacheFracs = []float64{0.01, 0.05, 0.1, 0.2}
	}
	return c
}

// CachePoint is the outcome for one cache size.
type CachePoint struct {
	CacheFrac   float64
	HitRate     float64
	ByteHitRate float64
}

// CacheStudyResult is the what-if outcome across cache sizes.
type CacheStudyResult struct {
	Config CacheStudyConfig
	Points []CachePoint
}

// RunCacheStudy replays a Zipf-popular download stream through the
// live LRU cache over the chunk store and reports origin offload per
// cache size.
func RunCacheStudy(cfg CacheStudyConfig) (CacheStudyResult, error) {
	cfg = cfg.withDefaults()
	res := CacheStudyResult{Config: cfg}
	ctx := context.Background()

	// Build the catalog once in a backing store.
	backing := storage.NewMemStore()
	src := randx.Derive(cfg.Seed, "cache-study")
	sums := make([]storage.Sum, cfg.Objects)
	buf := make([]byte, cfg.ObjectBytes)
	for i := range sums {
		content := randx.Derive(cfg.Seed, fmt.Sprintf("obj/%d", i))
		for j := range buf {
			buf[j] = byte(content.Uint64())
		}
		sums[i] = storage.SumBytes(buf)
		if err := backing.PutCtx(ctx, sums[i], buf); err != nil {
			return res, err
		}
	}
	catalogBytes := int64(cfg.Objects) * int64(cfg.ObjectBytes)

	for _, frac := range cfg.CacheFracs {
		cache := storage.NewCachedStore(backing, int64(frac*float64(catalogBytes)))
		z := randx.NewZipf(src.Split(), cfg.Objects, cfg.ZipfExponent)
		for i := 0; i < cfg.Requests; i++ {
			if _, err := cache.GetCtx(ctx, sums[z.Draw()-1]); err != nil {
				return res, err
			}
		}
		st := cache.CacheStats()
		res.Points = append(res.Points, CachePoint{
			CacheFrac:   frac,
			HitRate:     st.HitRate(),
			ByteHitRate: st.ByteHitRate(),
		})
	}
	return res, nil
}

// TieringStudyConfig parameterizes the f4-style warm-storage what-if
// (§3.2.2 / Table 4: "the cold/warm storage solution can cut the cost
// down significantly" because ~80 % of uploads are never read within
// the week).
type TieringStudyConfig struct {
	Objects     int           // uploaded objects (default 2000)
	ObjectBytes int           // size per object (default 64 KB in-study)
	ReadProb    float64       // probability an object is read during the week (default 0.2, per Fig 9)
	ColdAfter   time.Duration // demotion idle threshold (default 24h)
	Days        int           // horizon (default 7)
	HotPrice    float64       // price per byte-hour (default 1.0)
	ColdPrice   float64       // default 0.4 (f4's ~2.8->2.1 replication-factor saving and cheaper media)
	Seed        uint64
}

func (c TieringStudyConfig) withDefaults() TieringStudyConfig {
	if c.Objects <= 0 {
		c.Objects = 2000
	}
	if c.ObjectBytes <= 0 {
		c.ObjectBytes = 64 << 10
	}
	if c.ReadProb == 0 {
		c.ReadProb = 0.2
	}
	if c.ColdAfter <= 0 {
		c.ColdAfter = 24 * time.Hour
	}
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.HotPrice == 0 {
		c.HotPrice = 1.0
	}
	if c.ColdPrice == 0 {
		c.ColdPrice = 0.4
	}
	return c
}

// TieringStudyResult is the warm-storage what-if outcome.
type TieringStudyResult struct {
	Config       TieringStudyConfig
	Stats        storage.TierStats
	TieredCost   float64
	HotOnlyCost  float64
	Saving       float64 // 1 - tiered/hot-only
	ColdShareEnd float64 // fraction of objects cold at the horizon
}

// RunTieringStudy uploads a population of objects on day 0, replays a
// week in which each object is read with ReadProb (the measured
// never-retrieve rate inverted), migrating daily, and compares the
// storage cost against keeping everything hot.
func RunTieringStudy(cfg TieringStudyConfig) (TieringStudyResult, error) {
	cfg = cfg.withDefaults()
	res := TieringStudyResult{Config: cfg}
	ctx := context.Background()

	clock := time.Date(2015, 8, 3, 0, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	ts := storage.NewTieredStore(storage.NewMemStore(), storage.NewMemStore(), cfg.ColdAfter, now)

	src := randx.Derive(cfg.Seed, "tiering-study")
	sums := make([]storage.Sum, cfg.Objects)
	readDay := make([]int, cfg.Objects) // -1 = never read
	buf := make([]byte, cfg.ObjectBytes)
	for i := range sums {
		content := randx.Derive(cfg.Seed, fmt.Sprintf("tierobj/%d", i))
		for j := range buf {
			buf[j] = byte(content.Uint64())
		}
		sums[i] = storage.SumBytes(buf)
		if err := ts.PutCtx(ctx, sums[i], buf); err != nil {
			return res, err
		}
		readDay[i] = -1
		if src.Bool(cfg.ReadProb) {
			readDay[i] = 1 + src.Intn(cfg.Days-1)
		}
	}

	for day := 1; day <= cfg.Days; day++ {
		ts.AccrueOccupancy(24 * time.Hour)
		clock = clock.Add(24 * time.Hour)
		if _, err := ts.Migrate(); err != nil {
			return res, err
		}
		for i := range sums {
			if readDay[i] == day {
				if _, err := ts.GetCtx(ctx, sums[i]); err != nil {
					return res, err
				}
			}
		}
	}

	st := ts.TierStats()
	res.Stats = st
	res.TieredCost = st.Cost(cfg.HotPrice, cfg.ColdPrice)
	res.HotOnlyCost = st.HotOnlyCost(cfg.HotPrice)
	if res.HotOnlyCost > 0 {
		res.Saving = 1 - res.TieredCost/res.HotOnlyCost
	}
	if cfg.Objects > 0 {
		res.ColdShareEnd = float64(int64(st.Demotions)-int64(st.Promotions)) / float64(cfg.Objects)
	}
	return res, nil
}
