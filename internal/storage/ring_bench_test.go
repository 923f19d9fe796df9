package storage

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/trace"
)

// benchRing boots a disk-backed ring of nodes front-ends, N=3 and W=2,
// and returns a window-one client of node 0.
func benchRing(b *testing.B, nodes int) *Client {
	b.Helper()
	peers := make([]string, nodes)
	muxes := make([]*http.ServeMux, nodes)
	for i := range peers {
		muxes[i] = http.NewServeMux()
		srv := httptest.NewServer(muxes[i])
		b.Cleanup(srv.Close)
		peers[i] = srv.URL
	}
	meta := NewMetadata()
	for i := range peers {
		ds, err := OpenDiskStore(b.TempDir(), DiskStoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ds.Close() })
		rs, err := NewReplicatedStore(ReplicatedConfig{Self: peers[i], Peers: peers, Replicas: 3, WriteQuorum: 2, Local: ds})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rs.Close() })
		muxes[i].Handle("/", NewFrontEnd(FrontEndConfig{Store: rs, Local: ds, Meta: meta}).Handler())
	}
	metaSrv := httptest.NewServer(meta.Handler())
	b.Cleanup(metaSrv.Close)
	meta.AddFrontEnd(peers[0])
	return NewClient(ClientConfig{MetaURL: metaSrv.URL, UserID: 1, DeviceID: 1, Device: trace.Android, Parallel: 1})
}

// BenchmarkRingStore times whole stores through a replicated ring where
// every node owns every chunk (3 nodes) and one where it does not (4
// nodes): the two ways the fan-out opens its replica streams. It
// reports the median and p90 store in ms; every store's chunks are new.
//
//	go test ./internal/storage -run '^$' -bench RingStore -benchtime 60x
func BenchmarkRingStore(b *testing.B) {
	for _, nodes := range []int{3, 4} {
		for _, chunks := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("nodes=%d/chunks=%d", nodes, chunks), func(b *testing.B) {
				client := benchRing(b, nodes)
				data := make([]byte, chunks*ChunkSize)
				src := randx.New(uint64(nodes*100 + chunks))
				for i := 0; i+8 <= len(data); i += 8 {
					binary.LittleEndian.PutUint64(data[i:], src.Uint64())
				}
				fresh := func(n int) {
					for c := 0; c < chunks; c++ {
						binary.LittleEndian.PutUint64(data[c*ChunkSize:], uint64(n))
					}
				}
				fresh(-1) // warm connections and dialect discovery
				if _, err := client.StoreFile("warm.bin", data); err != nil {
					b.Fatal(err)
				}
				lat := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					fresh(n)
					start := time.Now()
					if _, err := client.StoreFile("f.bin", data); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(start))
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
				b.ReportMetric(ms(0.5), "p50-ms")
				b.ReportMetric(ms(0.9), "p90-ms")
			})
		}
	}
}
