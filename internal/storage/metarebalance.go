package storage

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mcloud/internal/cluster"
)

// MetaRebalancer restores the metadata plane's placement invariant:
// every user namespace on exactly the shard the current map assigns.
// It fetches the versioned shard map from a seed endpoint, discovers
// each shard group's current primary, takes a census of which shard
// holds which users, and moves every misplaced namespace — export
// from the holder, import into the owner (replayed through the
// owner's WAL, preserving the file URLs clients hold), verify the
// copy landed, and only then evict the leftover from the source.
//
// Run it after changing -metashards across the plane, or with Verify
// to audit placement without moving anything (the smoke test's gate).
type MetaRebalancer struct {
	Seed   string // base URL of any metadata endpoint (required)
	DryRun bool   // report planned moves without mutating anything
	Verify bool   // census only: count misplaced namespaces and stop
	Logf   func(format string, args ...interface{})
}

// metaMoveTimeout bounds one census, export, import or evict attempt
// (a namespace travels whole in one request) and each status probe of
// the primary election.
const metaMoveTimeout = 30 * time.Second

// MetaRebalanceReport summarizes one run.
type MetaRebalanceReport struct {
	Shards     int
	MapVersion uint64
	Users      int // namespaces seen across all shards
	Misplaced  int // namespaces the map assigns to a different shard
	Moved      int // namespaces exported + imported to their owner
	Evicted    int // source leftovers dropped after a verified move
	Errors     int
}

func (rb *MetaRebalancer) logf(format string, args ...interface{}) {
	if rb.Logf != nil {
		rb.Logf(format, args...)
	}
}

// Run executes the census and (unless Verify or DryRun) the moves.
func (rb *MetaRebalancer) Run() (MetaRebalanceReport, error) {
	var rep MetaRebalanceReport
	smap, err := fetchMap(rb.Seed)
	if err != nil {
		return rep, fmt.Errorf("fetching shard map from %s: %w", rb.Seed, err)
	}
	rep.Shards = smap.NumShards()
	rep.MapVersion = smap.Version

	// Every call goes through the front-ends' metadata router, pinned to
	// the shard: first to the primary its discovery elected, and on a
	// standby bounce, fencing or stale epoch to the one it re-elects, so
	// every mutation of a move replicates via the primary's WAL. The
	// census and export are primary-only too (a standby or fenced node
	// answers not_primary or fenced), so a retry never moves a lagging
	// copy's subset and then evicts the rest. An unsharded plane's one
	// group is the seed. A busy primary gets the move's bound to answer
	// the election's status probe, not the front-ends' 1 s.
	rm := newRemoteMeta([]string{rb.Seed}, smap, nil)
	rm.retry.RequestTimeout = metaMoveTimeout
	rm.router.probe = metaMoveTimeout
	ctx := context.Background()
	for i := 0; i < rep.Shards; i++ {
		primary := rm.Discover(ctx, i)
		if primary == "" {
			return rep, fmt.Errorf("shard %d: no endpoint answers as primary", i)
		}
		rb.logf("shard %d: primary %s", i, primary)
	}

	// Census: who holds whom, and who should.
	type move struct {
		user uint64
		src  int
		dst  int
	}
	var moves []move
	for i := 0; i < rep.Shards; i++ {
		var census MetaUsersResponse
		if err := rm.postJSON(ctx, "meta-users", i, "/v1/meta/users", struct{}{}, &census); err != nil {
			return rep, fmt.Errorf("shard %d census: %w", i, err)
		}
		if census.MapVersion != smap.Version {
			return rep, fmt.Errorf("shard %d runs map version %d, rebalancer fetched %d — converge the plane first",
				i, census.MapVersion, smap.Version)
		}
		rep.Users += len(census.Users)
		for _, u := range census.Users {
			if !u.Misplaced {
				continue
			}
			rep.Misplaced++
			moves = append(moves, move{user: u.User, src: i, dst: smap.ShardFor(u.User)})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].user < moves[j].user })

	if rb.Verify {
		return rep, nil
	}
	for _, mv := range moves {
		rb.logf("user %d: shard %d -> shard %d", mv.user, mv.src, mv.dst)
		if rb.DryRun {
			continue
		}
		if err := rb.moveUser(ctx, rm, mv.user, mv.src, mv.dst); err != nil {
			rb.logf("user %d: %v", mv.user, err)
			rep.Errors++
			continue
		}
		rep.Moved++
		rep.Evicted++
	}
	return rep, nil
}

// moveUser runs one namespace move: export, import, verify, evict.
// The import replays the files through the owner's WAL preserving the
// source-minted URLs, so a client-held URL survives the move; the
// evict runs only after the owner's copy is read back and matches.
func (rb *MetaRebalancer) moveUser(ctx context.Context, rm *RemoteMeta, user uint64, src, dst int) error {
	var exp MetaExportResponse
	if err := rm.postJSON(ctx, "meta-export", src, "/v1/meta/export", MetaExportRequest{User: user}, &exp); err != nil {
		return fmt.Errorf("export from shard %d: %w", src, err)
	}
	var imp MetaImportResponse
	if err := rm.postJSON(ctx, "meta-import", dst, "/v1/meta/import", MetaImportRequest{User: user, Files: exp.Files}, &imp); err != nil {
		return fmt.Errorf("import into shard %d: %w", dst, err)
	}
	var check MetaExportResponse
	if err := rm.postJSON(ctx, "meta-export", dst, "/v1/meta/export", MetaExportRequest{User: user}, &check); err != nil {
		return fmt.Errorf("verifying shard %d copy: %w", dst, err)
	}
	if len(check.Files) < len(exp.Files) {
		return fmt.Errorf("shard %d holds %d of %d files after import — leaving source untouched",
			dst, len(check.Files), len(exp.Files))
	}
	var ev MetaEvictResponse
	if err := rm.postJSON(ctx, "meta-evict", src, "/v1/meta/evict", MetaEvictRequest{User: user}, &ev); err != nil {
		return fmt.Errorf("evicting from shard %d: %w", src, err)
	}
	return nil
}

// fetchMap reads the versioned shard map from one endpoint.
func fetchMap(ep string) (*cluster.MetaShardMap, error) {
	var m cluster.MetaShardMap
	if err := getJSON(context.Background(), defaultHTTPClient, ep+"/v1/meta/shards", metaMoveTimeout, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
