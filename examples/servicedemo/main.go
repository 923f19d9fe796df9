// Servicedemo runs the complete storage service on loopback sockets —
// a metadata server plus two storage front-ends — drives simulated
// Android and iOS devices through the §2.1 store/retrieve protocol
// over real HTTP, then feeds the front-ends' request logs through the
// session-identification pipeline, closing the loop the paper's
// measurement setup describes (log collection at the front-ends).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"mcloud/internal/randx"
	"mcloud/internal/session"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
	"mcloud/internal/workload"
)

func main() {
	// 1. Bring up the service.
	store := storage.NewMemStore()
	meta := storage.NewMetadata()
	collector := &storage.Collector{}

	var servers []*http.Server
	for i := 0; i < 2; i++ {
		fe := storage.NewFrontEnd(storage.FrontEndConfig{
			Store:         store,
			Meta:          meta,
			Sink:          collector,
			UpstreamDelay: func() time.Duration { return 2 * time.Millisecond },
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: fe.Handler()}
		go srv.Serve(ln)
		servers = append(servers, srv)
		meta.AddFrontEnd("http://" + ln.Addr().String())
		fmt.Printf("front-end %d on %s\n", i+1, ln.Addr())
	}
	metaLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	metaSrv := &http.Server{Handler: meta.Handler()}
	go metaSrv.Serve(metaLn)
	metaURL := "http://" + metaLn.Addr().String()
	fmt.Printf("metadata server on %s\n\n", metaLn.Addr())

	// 2. Drive devices: three users, one of them with two devices, one
	//    sharing content with another (dedup).
	src := randx.New(2016)
	mkData := func(n int, stream *randx.Source) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(stream.Uint64())
		}
		return b
	}

	// Every file operation takes a context; the whole demo gets a minute.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	alice := storage.NewClient(storage.ClientConfig{MetaURL: metaURL, UserID: 1, DeviceID: 11, Device: trace.Android, SimRTT: 90 * time.Millisecond})
	bob := storage.NewClient(storage.ClientConfig{MetaURL: metaURL, UserID: 2, DeviceID: 21, Device: trace.IOS, SimRTT: 60 * time.Millisecond})
	bobPad := storage.NewClient(storage.ClientConfig{MetaURL: metaURL, UserID: 2, DeviceID: 22, Device: trace.Android, SimRTT: 120 * time.Millisecond})

	// Alice backs up a batch of "photos" (sizes from the paper's
	// store mixture component 1).
	var aliceURLs []string
	for i := 0; i < 6; i++ {
		size := int(src.Exp(workload.StoreSizeMus[0] * float64(1<<20)))
		if size < 64<<10 {
			size = 64 << 10
		}
		if size > 3<<20 {
			size = 3 << 20
		}
		res, err := alice.StoreFileCtx(ctx, fmt.Sprintf("photo-%d.jpg", i), mkData(size, src.Split()))
		if err != nil {
			log.Fatal(err)
		}
		aliceURLs = append(aliceURLs, res.URL)
	}
	fmt.Printf("alice uploaded %d photos\n", len(aliceURLs))

	// Bob uploads a video, then his second device uploads the *same*
	// video — the metadata server deduplicates it.
	video := mkData(5<<20/2, src.Split())
	res1, err := bob.StoreFileCtx(ctx, "clip.mp4", video)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := bobPad.StoreFileCtx(ctx, "clip-copy.mp4", video)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob uploaded a %.1f MB video; second device dedup=%v (0 chunks resent)\n",
		float64(len(video))/(1<<20), res2.Deduplicated)
	if !res2.Deduplicated || res2.ChunksSent != 0 {
		log.Fatal("expected server-side deduplication")
	}

	// Bob's pad retrieves one of Alice's files via its shared URL (the
	// content-distribution usage pattern of §3.2.1).
	got, err := bobPad.RetrieveFileCtx(ctx, aliceURLs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob's pad fetched alice's shared photo (%.1f KB) via URL\n\n", float64(len(got))/1024)
	_ = res1

	// 3. Shut down and analyze the captured request logs.
	for _, s := range servers {
		s.Close()
	}
	metaSrv.Close()

	logs := collector.Logs()
	id := session.NewIdentifier(0)
	for _, l := range logs {
		id.Add(l)
	}
	sessions := id.Sessions()
	st := session.Summarize(sessions)
	fmt.Printf("front-end request logs captured: %d\n", len(logs))
	fmt.Printf("sessions identified: %d (store-only %d, retrieve-only %d, mixed %d)\n",
		st.Total, st.ByClass[session.StoreOnly], st.ByClass[session.RetrieveOnly], st.ByClass[session.Mixed])
	for _, s := range sessions {
		fmt.Printf("  user %d dev %d %-13s ops=%d chunks=%d vol=%.2f MB len=%v\n",
			s.UserID, s.DeviceID, s.Class(), s.FileOps, s.ChunkReqs,
			float64(s.Volume())/(1<<20), s.Length().Round(time.Millisecond))
	}

	ss := store.Stats()
	ms := meta.Stats()
	fmt.Printf("\nchunk store: %d unique chunks, %.1f MB unique of %.1f MB offered (dedup ratio %.2f)\n",
		ss.Chunks, float64(ss.Bytes)/(1<<20), float64(ss.BytesStored)/(1<<20), ss.DedupRatio())
	fmt.Printf("metadata: %d files, %d users, %d file-level dedup hits\n", ms.Files, ms.Users, ms.DedupHits)
}
