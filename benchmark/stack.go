package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
)

const (
	cacheBytes   = 64 * mb
	clusterNodes = 3 // N = 3 owners per chunk, W = 2 acks
)

// node is one front-end process's worth of the service.
type node struct {
	url  string
	disk *storage.DiskStore
	repl *storage.ReplicatedStore // nil on the single-node stack
}

// stack is a whole service built in this process the way mcsserver
// builds it, from the storage package's public constructors, on real
// loopback TCP listeners. Nothing simulated is switched on: no
// upstream delay, no RTT, no fault injection, and the program's own
// Tracer stays nil.
type stack struct {
	dir     string
	metaURL string
	meta    *storage.Metadata
	cache   *storage.CachedStore // nil on the cluster stack
	nodes   []*node
	servers []*http.Server
	logFile *os.File
	sink    *storage.WriterSink
	clients *storage.ClientMetrics
	tr      *tracer // nil when untraced
	idle    []*http.Transport
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// newTransport sizes a connection pool like the program's defaults.
func (st *stack) newTransport() *http.Transport {
	tp := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
	st.idle = append(st.idle, tp)
	return tp
}

// openStack builds the workload's service under dir. With a tracer it
// also installs the span wrappers at every layer boundary.
func openStack(s *spec, dir string, tr *tracer) (st *stack, err error) {
	st = &stack{dir: dir, tr: tr}
	reg := metrics.NewRegistry() // the metadata node's and the front-ends' shared series
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.clients = storage.NewClientMetrics(reg)
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if st.logFile, err = os.Create(filepath.Join(dir, "service.log")); err != nil {
		return nil, err
	}
	st.sink = storage.NewWriterSink(trace.NewWriter(st.logFile))

	if st.meta, err = storage.OpenDurableMetadata(filepath.Join(dir, "meta")); err != nil {
		return nil, err
	}
	st.meta.Instrument(reg)
	var metaSvc storage.MetaService = st.meta
	metaHandler := st.meta.Handler()
	if tr != nil {
		metaSvc = tracedMeta{st.meta, tr}
		metaHandler = tr.middleware(spMetaHTTP, metaHandler)
	}

	count := 1
	if s.cluster {
		count = clusterNodes
	}
	lns := make([]net.Listener, count)
	var peers []string
	for i := range lns {
		n := &node{}
		if lns[i], n.url, err = listen(); err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		peers = append(peers, n.url)
		st.meta.AddFrontEnd(n.url)
	}
	feMetrics := storage.NewFrontEndMetrics(reg)
	for i, n := range st.nodes {
		n.disk, err = storage.OpenDiskStore(filepath.Join(dir, fmt.Sprintf("chunks%d", i)), storage.DiskStoreOptions{})
		if err != nil {
			return nil, err
		}
		// One registry per node, as one mcsserver process has.
		nodeReg := metrics.NewRegistry()
		n.disk.Instrument(nodeReg)
		storage.InstrumentStore(nodeReg, n.disk)
		var local storage.ChunkStore = n.disk
		if tr != nil {
			local = traceStore(tr, n.disk, spDiskPut, spDiskGet)
		}
		cfg := storage.FrontEndConfig{Meta: metaSvc, Sink: st.sink, Metrics: feMetrics}
		if s.cluster {
			// The peer client is the package default rebuilt here, so that
			// close can drop its idle connections.
			var peerRT http.RoundTripper = st.newTransport()
			if tr != nil {
				peerRT = hopTracer{peerRT, tr}
			}
			rc := storage.ReplicatedConfig{Self: n.url, Peers: peers, Replicas: clusterNodes, WriteQuorum: 2, Local: local,
				HTTP: &http.Client{Timeout: 15 * time.Second, Transport: peerRT}}
			if n.repl, err = storage.NewReplicatedStore(rc); err != nil {
				return nil, err
			}
			n.repl.Instrument(nodeReg)
			// Store must stay the *ReplicatedStore itself: the front-end
			// type-asserts it to advertise the ring to clients.
			cfg.Store, cfg.Local = n.repl, local
		} else {
			st.cache = storage.NewCachedStore(local, cacheBytes)
			st.cache.Instrument(nodeReg)
			var top storage.ChunkStore = st.cache
			if tr != nil {
				top = traceStore(tr, st.cache, spStorePut, spStoreGet)
			}
			cfg.Store, cfg.Local = top, top
		}
		h := storage.NewFrontEnd(cfg).Handler()
		if tr != nil {
			h = tr.middleware(spFEHTTP, h)
		}
		st.serve(lns[i], h)
	}

	metaLn, metaURL, err := listen()
	if err != nil {
		return nil, err
	}
	st.metaURL = metaURL
	st.serve(metaLn, metaHandler)
	return st, nil
}

func (st *stack) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadTimeout: time.Minute, ReadHeaderTimeout: time.Minute}
	st.servers = append(st.servers, srv)
	go srv.Serve(ln) // returns when close shuts the server down
}

// newClient returns a device's client on its own connection pool. In
// a traced run cur holds the device's current root span.
func (st *stack) newClient(s *spec, user uint64, seed uint64, cur *atomic.Uint32) *storage.Client {
	var rt http.RoundTripper = st.newTransport()
	if st.tr != nil && cur != nil {
		rt = opStamper{rt, cur}
	}
	return storage.NewClient(storage.ClientConfig{
		MetaURL:   st.metaURL,
		UserID:    user,
		DeviceID:  user,
		Device:    trace.Android,
		HTTP:      &http.Client{Timeout: 2 * time.Minute, Transport: rt},
		RetrySeed: seed,
		Parallel:  s.parallel,
		Metrics:   st.clients,
	})
}

// counters is a snapshot of the layers' public stats, taken at both
// ends of the measured window.
type counters struct {
	cache                storage.CacheStats
	puts, diskFsyncs     int64
	walAppends, walFsync int64
	retries              int64
}

func (st *stack) counters() counters {
	var c counters
	if st.cache != nil {
		c.cache = st.cache.CacheStats()
	}
	for _, n := range st.nodes {
		c.puts += n.disk.Stats().Puts
		c.diskFsyncs += n.disk.DiskStats().Fsyncs
	}
	ws := st.meta.WAL().Stats()
	c.walAppends, c.walFsync = ws.Appends, ws.Fsyncs
	c.retries = st.clients.Stats().Retries
	return c
}

// waitReplicated blocks until every node holds all chunks acked so
// far (a W=2 write returns while the third replica is still in
// flight) and returns how many replicas were still missing when it
// gave up. With N equal to the cluster size every node owns every chunk.
func (st *stack) waitReplicated(ctx context.Context, chunks int) int {
	if len(st.nodes) == 1 {
		return 0
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		missing := 0
		for _, n := range st.nodes {
			missing += max(0, chunks-n.disk.Stats().Chunks) + n.repl.Underreplicated()
		}
		if missing == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			return missing
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close stops the servers and closes every store and log, so that the
// directory holds exactly what a restart would find.
func (st *stack) close() error {
	var errs []error
	for _, tp := range st.idle {
		tp.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range st.servers {
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, err, srv.Close())
		}
	}
	for _, n := range st.nodes {
		if n.repl != nil {
			errs = append(errs, n.repl.Close())
		}
	}
	if st.sink != nil {
		errs = append(errs, st.sink.Flush(), st.logFile.Close())
	}
	for _, n := range st.nodes {
		if n.disk != nil {
			errs = append(errs, n.disk.Close())
		}
	}
	if st.meta != nil {
		errs = append(errs, st.meta.CloseWAL())
	}
	return errors.Join(errs...)
}

// storedBytes sizes what the closed stack left on disk for chunks and
// metadata; the request log is output, not storage.
func (st *stack) storedBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || path == st.logFile.Name() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
