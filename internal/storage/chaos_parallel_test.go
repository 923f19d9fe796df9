package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mcloud/internal/faults"
	"mcloud/internal/randx"
)

// TestChaosConcurrentClientInvariant re-runs the PR 2 headline
// invariant — every store the service acknowledges must retrieve
// byte-identical — with the concurrent machinery engaged on both
// sides: several devices upload in parallel, each keeping a window of
// chunk requests in flight against the sharded store, all through the
// mixed10 fault preset. Run under -race this doubles as the data-race
// check for the windowed client and the sharded MemStore.
func TestChaosConcurrentClientInvariant(t *testing.T) {
	sc, err := faults.ParseScenario("mixed10,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	base, _, injFE, cleanup := chaosService(t, sc, nil)
	defer cleanup()

	const devices = 4
	const filesPer = 4

	type storedFile struct {
		url  string
		data []byte
	}
	var mu sync.Mutex
	var files []storedFile

	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			client := reconfigure(base, func(cfg *ClientConfig) {
				cfg.DeviceID = uint64(d)
				cfg.Parallel = 4
			})
			src := randx.Derive(123, fmt.Sprintf("chaospar/%d", d))
			for i := 0; i < filesPer; i++ {
				// 3-5 chunks so the window genuinely overlaps requests.
				n := 2*ChunkSize + 1 + src.Intn(2*ChunkSize)
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(src.Uint64())
				}
				res, err := client.StoreFile(fmt.Sprintf("p%d-%d.bin", d, i), data)
				if err != nil {
					t.Logf("device %d store %d not acknowledged: %v", d, i, err)
					continue
				}
				mu.Lock()
				files = append(files, storedFile{res.URL, data})
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()

	if len(files) < devices*filesPer-4 {
		t.Fatalf("only %d/%d stores acknowledged under mixed10", len(files), devices*filesPer)
	}
	if injFE.Injected() == 0 {
		t.Error("no faults injected; scenario inert")
	}

	// Concurrent read-back, windows still active, faults still armed.
	var rwg sync.WaitGroup
	for d := 0; d < devices; d++ {
		rwg.Add(1)
		go func(d int) {
			defer rwg.Done()
			client := reconfigure(base, func(cfg *ClientConfig) {
				cfg.DeviceID = uint64(100 + d)
				cfg.Parallel = 4
			})
			for i := d; i < len(files); i += devices {
				f := files[i]
				var data []byte
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					if data, err = client.RetrieveFile(f.url); err == nil {
						break
					}
				}
				if err != nil {
					t.Errorf("acknowledged file %d lost: %v", i, err)
					continue
				}
				if !bytes.Equal(data, f.data) {
					t.Errorf("acknowledged file %d corrupted", i)
				}
			}
		}(d)
	}
	rwg.Wait()
}
