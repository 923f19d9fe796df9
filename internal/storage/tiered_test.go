package storage

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atomicClock is a goroutine-safe fake clock for tier tests that race
// reads against migration.
type atomicClock struct{ ns atomic.Int64 }

func (c *atomicClock) Set(t time.Time)     { c.ns.Store(t.UnixNano()) }
func (c *atomicClock) Add(d time.Duration) { c.ns.Add(int64(d)) }
func (c *atomicClock) Now() time.Time      { return time.Unix(0, c.ns.Load()) }
func newClock(t time.Time) *atomicClock    { c := &atomicClock{}; c.Set(t); return c }

// TestTieredStoreStatsAggregation pins Stats() to a hand-computed
// fixture that includes the cold tier: before the fix, demoted chunks
// vanished from the counters because only the hot tier was consulted.
func TestTieredStoreStatsAggregation(t *testing.T) {
	clock := newClock(time.Date(2015, 8, 3, 0, 0, 0, 0, time.UTC))
	ts := NewTieredStore(NewMemStore(), NewMemStore(), time.Hour, clock.Now)

	a := bytes.Repeat([]byte("a"), 100)
	b := bytes.Repeat([]byte("b"), 200)
	c := bytes.Repeat([]byte("c"), 400)
	for _, data := range [][]byte{a, b, c} {
		if err := ts.PutCtx(bg, SumBytes(data), data); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate Put of b is a dedup hit, offered bytes still counted.
	if err := ts.PutCtx(bg, SumBytes(b), b); err != nil {
		t.Fatal(err)
	}
	// Demote everything, then read c to promote it back: the logical
	// store still holds exactly three chunks.
	clock.Add(2 * time.Hour)
	if n, err := ts.Migrate(); err != nil || n != 3 {
		t.Fatalf("migrate: n=%d err=%v", n, err)
	}
	if _, err := ts.GetCtx(bg, SumBytes(c)); err != nil {
		t.Fatal(err)
	}

	want := StoreStats{
		Chunks:      3,
		Bytes:       700,
		Puts:        4,
		DedupHits:   1,
		BytesStored: 900, // 100+200+400 + the duplicate 200
	}
	if got := ts.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	st := ts.TierStats()
	if st.Demotions != 3 || st.Promotions != 1 || st.ColdReads != 1 {
		t.Fatalf("TierStats = %+v, want 3 demotions, 1 promotion, 1 cold read", st)
	}

	// And with a duplicate re-Put of a demoted chunk: still a dedup
	// hit, not a hot-tier resurrection.
	if err := ts.PutCtx(bg, SumBytes(a), a); err != nil {
		t.Fatal(err)
	}
	got := ts.Stats()
	if got.Chunks != 3 || got.Bytes != 700 || got.DedupHits != 2 {
		t.Fatalf("Stats after cold re-Put = %+v, want 3 chunks/700 bytes/2 dedup hits", got)
	}
	if ts.hot.Has(SumBytes(a)) {
		t.Fatal("re-Put of a demoted chunk resurrected an unaccounted hot copy")
	}
}

// TestTieredStoreMigrateRechecksLastRead reproduces the demotion race
// deterministically: while Migrate is busy demoting a chunk in one
// shard, a read refreshes another stale chunk in a different shard.
// The re-check under the shard lock must spare the freshly-read chunk.
func TestTieredStoreMigrateRechecksLastRead(t *testing.T) {
	clock := newClock(time.Unix(0, 0))
	var ts *TieredStore

	// Two stale chunks in different shards, with A's shard strictly
	// earlier in Migrate's scan order, so A's demotion runs first and
	// our interleaved read of B lands between the candidate scan and
	// B's demotion.
	var dataA, dataB []byte
	var sumA, sumB Sum
	findChunks := func() {
		shardIdx := func(sum Sum) uint32 { return ts.shardIndex(sum) }
		dataA = []byte("shard probe A")
		sumA = SumBytes(dataA)
		for i := 0; ; i++ {
			dataB = []byte(fmt.Sprintf("shard probe B %d", i))
			sumB = SumBytes(dataB)
			if shardIdx(sumB) > shardIdx(sumA) {
				return
			}
		}
	}

	// raceCold triggers the interleaved read while Migrate is copying
	// chunk A into the cold tier (A's shard lock held, B's free).
	raceCold := &hookStore{ChunkStore: NewMemStore()}
	raceCold.onPut = func(sum Sum) {
		if sum != sumA {
			return
		}
		// Simulate a user reading chunk B between the candidate scan
		// and its demotion.
		clock.Add(30 * time.Minute)
		if _, err := ts.GetCtx(bg, sumB); err != nil {
			t.Error(err)
		}
	}

	ts = NewTieredStore(NewMemStore(), raceCold, time.Hour, clock.Now)
	findChunks()
	if err := ts.PutCtx(bg, sumA, dataA); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutCtx(bg, sumB, dataB); err != nil {
		t.Fatal(err)
	}

	clock.Add(2 * time.Hour)
	n, err := ts.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one demotion: A went cold, B was spared by the re-check
	// because the interleaved read refreshed its lastRead.
	if n != 1 {
		t.Fatalf("migrate demoted %d chunks, want 1 (freshly-read chunk must be spared)", n)
	}
	st := ts.TierStats()
	if st.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", st.Demotions)
	}
	sB := ts.shard(sumB)
	sB.mu.Lock()
	hotB := sB.placedHot[sumB]
	sB.mu.Unlock()
	if !hotB {
		t.Fatal("freshly-read chunk was demoted despite the re-check")
	}
}

// TestTieredStoreMigrateGetRace hammers reads, writes, and migration
// concurrently (run under -race); afterwards every chunk must be
// readable and the placement/accounting invariants must hold.
func TestTieredStoreMigrateGetRace(t *testing.T) {
	clock := newClock(time.Unix(0, 0))
	ts := NewTieredStore(NewMemStore(), NewMemStore(), time.Millisecond, clock.Now)

	const chunks = 64
	var data [][]byte
	var sums []Sum
	for i := 0; i < chunks; i++ {
		d := []byte(fmt.Sprintf("race chunk %d", i))
		data = append(data, d)
		sums = append(sums, SumBytes(d))
		if err := ts.PutCtx(bg, sums[i], d); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := (i*7 + w) % chunks
				got, err := ts.GetCtx(bg, sums[j])
				if err != nil {
					t.Errorf("Get %d: %v", j, err)
					return
				}
				if !bytes.Equal(got, data[j]) {
					t.Errorf("Get %d: wrong bytes", j)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			clock.Add(time.Millisecond)
			if _, err := ts.Migrate(); err != nil {
				t.Errorf("Migrate: %v", err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()

	// Every chunk still readable, accounting intact.
	for i := range sums {
		got, err := ts.GetCtx(bg, sums[i])
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("chunk %d after race: %v", i, err)
		}
	}
	st := ts.Stats()
	if st.Chunks != chunks {
		t.Fatalf("Chunks = %d, want %d", st.Chunks, chunks)
	}
	ti := ts.TierStats()
	if ti.Promotions > ti.Demotions {
		t.Fatalf("promotions %d > demotions %d", ti.Promotions, ti.Demotions)
	}
}

// hookStore wraps a ChunkStore with injectable put behaviour.
type hookStore struct {
	ChunkStore
	mu      sync.Mutex
	puts    int
	failPut func(n int) error // called with 1-based put ordinal
	onPut   func(sum Sum)     // called before delegating
}

func (h *hookStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	h.mu.Lock()
	h.puts++
	n := h.puts
	h.mu.Unlock()
	if h.onPut != nil {
		h.onPut(sum)
	}
	if h.failPut != nil {
		if err := h.failPut(n); err != nil {
			return err
		}
	}
	return h.ChunkStore.PutCtx(ctx, sum, data)
}

// TestTieredStoreMigratePartialFailure drives Migrate into a cold
// store that fails its second Put: the first chunk must be cleanly
// cold, the failing chunk must remain fully hot and readable, and the
// accounting must reflect exactly one demotion.
func TestTieredStoreMigratePartialFailure(t *testing.T) {
	clock := newClock(time.Unix(0, 0))
	coldErr := fmt.Errorf("cold tier down")
	cold := &hookStore{ChunkStore: NewMemStore()}
	cold.failPut = func(n int) error {
		if n == 2 {
			return coldErr
		}
		return nil
	}
	ts := NewTieredStore(NewMemStore(), cold, time.Hour, clock.Now)

	var sums []Sum
	var data [][]byte
	for i := 0; i < 2; i++ {
		d := []byte(fmt.Sprintf("partial failure chunk %d", i))
		data = append(data, d)
		sums = append(sums, SumBytes(d))
		if err := ts.PutCtx(bg, sums[i], d); err != nil {
			t.Fatal(err)
		}
	}

	clock.Add(2 * time.Hour)
	n, err := ts.Migrate()
	if err != coldErr {
		t.Fatalf("err = %v, want the injected cold failure", err)
	}
	if n != 1 {
		t.Fatalf("demoted = %d, want 1", n)
	}
	if ts.TierStats().Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", ts.TierStats().Demotions)
	}

	// Both chunks readable; exactly one hot, one cold, and the hot one
	// still has its hot-tier bytes.
	hotCount := 0
	for i := range sums {
		got, err := ts.GetCtx(bg, sums[i])
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("chunk %d after failed migrate: %v", i, err)
		}
	}
	for i := range sums {
		s := ts.shard(sums[i])
		s.mu.Lock()
		if s.placedHot[sums[i]] {
			hotCount++
			if !ts.hot.Has(sums[i]) {
				t.Fatal("placement says hot but hot tier lacks the bytes")
			}
		}
		s.mu.Unlock()
	}
	// The cold read above promoted the demoted chunk back, so both are
	// hot again; before promotion exactly one was. Re-derive from tier
	// stats instead: one demotion, one promotion.
	st := ts.TierStats()
	if st.Promotions != 1 || st.ColdReads != 1 {
		t.Fatalf("TierStats = %+v, want exactly one promotion and cold read", st)
	}
	if ts.Stats().Chunks != 2 {
		t.Fatalf("Chunks = %d, want 2", ts.Stats().Chunks)
	}
}

// TestTieredStoreDelete covers the GC path for tiered placement: a
// delete must clear the chunk from both tiers and the accounting.
func TestTieredStoreDelete(t *testing.T) {
	clock := newClock(time.Unix(0, 0))
	ts := NewTieredStore(NewMemStore(), NewMemStore(), time.Hour, clock.Now)

	hotData := []byte("stays hot")
	coldData := []byte("goes cold then is deleted")
	for _, d := range [][]byte{hotData, coldData} {
		if err := ts.PutCtx(bg, SumBytes(d), d); err != nil {
			t.Fatal(err)
		}
	}
	// Age only coldData out.
	s := ts.shard(SumBytes(hotData))
	clock.Add(2 * time.Hour)
	s.mu.Lock()
	s.lastRead[SumBytes(hotData)] = clock.Now()
	s.mu.Unlock()
	if n, err := ts.Migrate(); err != nil || n != 1 {
		t.Fatalf("migrate: n=%d err=%v", n, err)
	}

	for _, d := range [][]byte{hotData, coldData} {
		if err := ts.Delete(SumBytes(d)); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.GetCtx(bg, SumBytes(d)); err != ErrNotFound {
			t.Fatalf("Get after Delete: %v", err)
		}
		if err := ts.Delete(SumBytes(d)); err != ErrNotFound {
			t.Fatalf("double delete: %v", err)
		}
	}
	st := ts.Stats()
	if st.Chunks != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after deletes = %+v, want empty", st)
	}
	if ts.hot.Stats().Chunks != 0 || ts.cold.Stats().Chunks != 0 {
		t.Fatal("backing tiers still hold deleted bytes")
	}
}

// TestTieredStoreDiskCold runs the tiered split with the durable
// store as its cold tier — the deployment shape mcsserver wires with
// -data and -coldafter — across a demote/promote cycle and a reopen.
// TestTieredStoreFlushHot covers the shutdown path of a volatile hot
// tier: chunks acknowledged into RAM but not yet idle long enough for
// Migrate must reach the durable cold tier via FlushHot, or they die
// with the process. The regression this pins: a fresh Put survives a
// flush-then-restart even though Migrate would have skipped it.
func TestTieredStoreFlushHot(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newClock(time.Unix(0, 0))
	ts := NewTieredStore(NewMemStore(), disk, time.Hour, clock.Now)

	fresh := bytes.Repeat([]byte("acked seconds before shutdown"), 40)
	freshSum := SumBytes(fresh)
	if err := ts.PutCtx(bg, freshSum, fresh); err != nil {
		t.Fatal(err)
	}

	// Migrate sees nothing idle; the chunk is still hot-only.
	if n, err := ts.Migrate(); err != nil || n != 0 {
		t.Fatalf("migrate: n=%d err=%v, want 0 demotions", n, err)
	}
	if disk.Has(freshSum) {
		t.Fatal("chunk demoted before FlushHot")
	}

	n, err := ts.FlushHot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("FlushHot flushed %d chunks, want 1", n)
	}
	if !disk.Has(freshSum) {
		t.Fatal("cold tier missing the flushed chunk")
	}
	if st := ts.TierStats(); st.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", st.Demotions)
	}
	// Idempotent: nothing hot remains.
	if n, err := ts.FlushHot(); err != nil || n != 0 {
		t.Fatalf("second FlushHot: n=%d err=%v, want 0", n, err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// The "restart": only the cold tier survives.
	disk2, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	got, err := disk2.GetCtx(bg, freshSum)
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("flushed chunk after reopen: %v", err)
	}
}

func TestTieredStoreDiskCold(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newClock(time.Unix(0, 0))
	ts := NewTieredStore(NewMemStore(), disk, time.Hour, clock.Now)

	data := bytes.Repeat([]byte("tiered durable chunk"), 50)
	sum := SumBytes(data)
	if err := ts.PutCtx(bg, sum, data); err != nil {
		t.Fatal(err)
	}
	clock.Add(2 * time.Hour)
	if n, err := ts.Migrate(); err != nil || n != 1 {
		t.Fatalf("migrate: n=%d err=%v", n, err)
	}
	if !disk.Has(sum) {
		t.Fatal("cold tier missing the demoted chunk")
	}
	got, err := ts.GetCtx(bg, sum)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %v", err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// The cold tier survives a restart: reopen and read directly.
	disk2, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	got, err = disk2.GetCtx(bg, sum)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold tier after reopen: %v", err)
	}
}
