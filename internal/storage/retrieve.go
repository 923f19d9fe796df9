package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sort"
	"sync"

	"mcloud/internal/tracing"
)

// errFileDigest reports retrieved bytes that do not hash to the file
// digest metadata holds.
var errFileDigest = errors.New("storage: retrieved content hash mismatch")

// retrievePlan is what a retrieve learns before the first chunk moves:
// the front-end serving the file, the file's digest and size, and its
// ordered chunk digests, already checked against the fixed-offset
// layout the chunks assemble into.
type retrievePlan struct {
	frontend string
	file     Sum
	size     int64
	sums     []Sum
	// op is the file retrieval operation request while it is unsent.
	// It rides every attempt of the mcsbin/1 batch that carries chunk 0
	// (see FileRetrieveHeader) until one gets a 200, which clears it;
	// when none does, the retrieval posts it itself.
	op *FileOpRequest
}

// slot is chunk i's place in buf, the assembling file. Its capacity
// ends where the slot does, so an append into slot[:0] never spills
// into the next chunk.
func (p *retrievePlan) slot(buf []byte, i int) []byte {
	lo := int64(i) * ChunkSize
	hi := min(lo+ChunkSize, p.size)
	return buf[lo:hi:hi]
}

// openRetrieve resolves url at the metadata plane and settles the file
// retrieval operation request. A URL is a shareable capability: it
// lives on the shard of the user who STORED it, which the requester's
// own hash says nothing about. The resolve tries our shard first (own
// files, the common case), then scatters across the remaining shards
// on a miss, and the operation request is pinned to the shard that
// answered.
//
// When the resolve lists the chunks and chunk 0's host has advertised
// that its batches carry the operation, the request is left on the
// plan for that batch: one round trip fewer. Otherwise it goes to the
// assigned front-end now, as in the paper's flow, and its answer
// supplies the chunk list.
func (c *Client) openRetrieve(url string, budget *retryBudget) (*retrievePlan, error) {
	own := c.meta().shardFor(budget.ctx, c.cfg.UserID)
	var res ResolveResponse
	err := c.postMetaJSON(own, "/meta/resolve", ResolveRequest{UserID: c.cfg.UserID, URL: url}, &res, budget)
	if errors.Is(err, ErrNotFound) {
		for s := 0; s < c.meta().shardMap(budget.ctx).NumShards(); s++ {
			if s == own {
				continue
			}
			err = c.postMetaJSON(s, "/meta/resolve", ResolveRequest{UserID: c.cfg.UserID, URL: url}, &res, budget)
			if !errors.Is(err, ErrNotFound) {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if res.FrontEnd == "" {
		return nil, fmt.Errorf("storage: metadata server assigned no front-end")
	}
	file, err := ParseSum(res.FileMD5)
	if err != nil {
		return nil, err
	}
	p := &retrievePlan{frontend: res.FrontEnd, file: file, size: res.Size}
	if p.sums, err = parseSums(res.ChunkMD5s); err != nil {
		return nil, err
	}
	op := &FileOpRequest{
		UserID:   c.cfg.UserID,
		DeviceID: c.cfg.DeviceID,
		Device:   c.cfg.Device.String(),
		FileMD5:  res.FileMD5,
		Size:     res.Size,
		Shard:    res.Shard,
	}
	if len(p.sums) > 0 && c.binCapsOf(c.chunkTarget(budget.ctx, p.frontend, p.sums[0])).fileRetrieve {
		p.op = op
	} else {
		var resp FileOpResponse
		if err := c.postJSON(p.frontend, "/op/retrieve", op, &resp, budget); err != nil {
			return nil, err
		}
		if p.sums, err = parseSums(resp.ChunkMD5s); err != nil {
			return nil, err
		}
	}
	// Every chunk but the last is exactly ChunkSize by construction
	// (SplitSums), so the layout is known up front — reject metadata
	// that contradicts it before allocating.
	if n := int64(len(p.sums)); p.size < 0 || p.size <= (n-1)*ChunkSize || p.size > n*ChunkSize {
		return nil, fmt.Errorf("storage: metadata size %d inconsistent with %d chunks", p.size, n)
	}
	return p, nil
}

// RetrieveFile is RetrieveFileCtx without a deadline.
func (c *Client) RetrieveFile(url string) ([]byte, error) {
	return c.RetrieveFileCtx(context.Background(), url)
}

// RetrieveFileCtx downloads the file behind a service URL and returns
// its contents: URL resolution at the metadata server, the file
// retrieval operation request (riding the first chunk batch where the
// front-end takes it), then the chunks as one retrieval (see
// retrieval). The returned bytes hash to the file digest metadata
// holds. The download ends with ctx, and its span is a child of the
// one ctx carries.
func (c *Client) RetrieveFileCtx(ctx context.Context, url string) (out []byte, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	budget := c.newBudget(ctx)
	budget.span = c.opSpan(ctx, tracing.SpanRetrieveFile)
	budget.span.Annotate("url", url)
	defer func() {
		budget.span.AnnotateInt("bytes", int64(len(out)))
		budget.span.EndErr(err)
	}()
	p, err := c.openRetrieve(url, budget)
	if err != nil {
		return nil, err
	}
	return c.retrieveChunks(p, budget)
}

// retrieval is one file on its way in. Every chunk travels over
// mcsbin/1 where its host speaks it, in batches the transfer window
// runs side by side. Each frame is checked as it comes off the socket
// — its carried CRC (written at ingress, stored in the segment file),
// a header naming the requested digest, the length its slot expects —
// and lands in its slot of the file. A fold goroutine hashes landed
// slots into the file MD5 in file order while later chunks are still
// arriving. The file MD5 compared against metadata is the retrieve's
// identity check (see repair); the CRC is only the per-chunk transport
// check. So a chunk that arrives over mcsbin/1 is hashed once; one the
// per-chunk JSON path fetches is hashed twice, by its own MD5 check
// and by the fold.
//
// Once a slot has landed nothing writes it while the fold runs (only
// repair, after the fold, rewrites slots): that is what lets the fold
// read it without a lock, and why a batch retry asks only for the
// chunks that have not landed.
type retrieval struct {
	c      *Client
	p      *retrievePlan
	buf    []byte
	budget *retryBudget
	landed chan int // slot indices, each sent once, when its bytes are final
}

func (r *retrieval) slot(i int) []byte { return r.p.slot(r.buf, i) }

// retrieveChunks runs a retrieval: the fold starts before the first
// request, every chunk lands, and the folded digest is checked against
// the file digest. No goroutine it starts outlives it.
func (c *Client) retrieveChunks(p *retrievePlan, budget *retryBudget) ([]byte, error) {
	r := &retrieval{
		c:      c,
		p:      p,
		buf:    make([]byte, p.size),
		budget: budget,
		landed: make(chan int, len(p.sums)),
	}
	folded := make(chan Sum, 1)
	go r.fold(folded)
	err := r.fetch()
	close(r.landed) // every sender has returned
	sum := <-folded
	if err != nil {
		return nil, err
	}
	if sum != p.file {
		if err := r.repair(); err != nil {
			return nil, err
		}
	}
	return r.buf, nil
}

// fold hashes slots into the file digest in file order, each as soon
// as it and every slot before it have landed, and sends the digest once
// the landings stop. When fetch failed the digest covers a prefix and
// is never compared.
func (r *retrieval) fold(out chan<- Sum) {
	h := md5Pool.Get().(hash.Hash)
	h.Reset()
	defer md5Pool.Put(h)
	have := make([]bool, len(r.p.sums))
	next := 0
	for i := range r.landed {
		have[i] = true
		for ; next < len(have) && have[next]; next++ {
			s := r.slot(next)
			h.Write(s)
			hashPasses.Add(int64(len(s)))
		}
	}
	var sum Sum
	h.Sum(sum[:0])
	out <- sum
}

// fetch lands every chunk: batched mcsbin/1 fetches first, then the
// per-chunk JSON path for whatever they could not deliver — chunks of
// hosts without the dialect, chunks a host answered not-found for (the
// assigned front-end may serve them from a replica), and the unlanded
// rest of a batch that exhausted its retries.
func (r *retrieval) fetch() error {
	w := r.c.window(len(r.p.sums))
	rest := r.fetchBin(w)
	if err := r.sendOp(); err != nil {
		return err
	}
	return runWindow(min(w, len(rest)), len(rest), func(k int) error {
		return r.getSlot(rest[k])
	})
}

// sendOp posts the file retrieval operation request when no batch
// carried it: chunk 0 did not travel over mcsbin/1, or its batch never
// got a 200.
func (r *retrieval) sendOp() error {
	if r.p.op == nil {
		return nil
	}
	var resp FileOpResponse
	if err := r.c.postJSON(r.p.frontend, "/op/retrieve", r.p.op, &resp, r.budget); err != nil {
		return err
	}
	r.p.op = nil
	return nil
}

// getSlot fetches chunk i over the MD5-verified per-chunk path and
// lands it.
func (r *retrieval) getSlot(i int) error {
	if err := r.fetchSlot(i); err != nil {
		return err
	}
	r.landed <- i
	return nil
}

// fetchSlot fetches chunk i into its slot over the MD5-verified
// per-chunk path.
func (r *retrieval) fetchSlot(i int) error {
	s := r.slot(i)
	data, err := r.c.getChunk(r.p.frontend, r.p.sums[i], r.budget, s[:0])
	if err != nil {
		return fmt.Errorf("chunk %d: %w", i, err)
	}
	if len(data) != len(s) {
		return fmt.Errorf("chunk %d: storage: chunk length %d does not fit file layout", i, len(data))
	}
	return nil
}

// fetchBin fetches as many chunks as possible over the binary dialect
// and returns the indices the per-chunk JSON path must still fetch
// (everything, when no target speaks the dialect). Chunks are grouped
// by their routed primary; hosts not yet seen advertising mcsbin/1
// keep their chunks on the fallback path. Batch failures degrade,
// never abort: the fallback path has per-chunk retries and front-end
// failover.
func (r *retrieval) fetchBin(w int) []int {
	c := r.c
	rest := make([]int, 0, len(r.p.sums))
	byHost := make(map[string][]int)
	for i, sum := range r.p.sums {
		if t := c.chunkTarget(r.budget.ctx, r.p.frontend, sum); c.binHost(t) {
			byHost[t] = append(byHost[t], i)
		} else {
			rest = append(rest, i)
		}
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	type batch struct {
		host string
		ids  []int
	}
	var batches []batch
	for _, h := range hosts {
		ids := byHost[h]
		per := batchSize(len(ids), w)
		for lo := 0; lo < len(ids); lo += per {
			batches = append(batches, batch{h, ids[lo:min(lo+per, len(ids))]})
		}
	}
	var mu sync.Mutex
	runWindow(min(w, len(batches)), len(batches), func(b int) error {
		if missed := r.getBatch(batches[b].host, batches[b].ids); len(missed) > 0 {
			mu.Lock()
			rest = append(rest, missed...)
			mu.Unlock()
		}
		return nil
	})
	sort.Ints(rest)
	return rest
}

// getBatch fetches one batch of chunks from host over mcsbin/1, landing
// each frame that passes its checks (see retrieval) before reading the
// next. A retry asks only for the chunks that have not landed yet. It
// returns the indices still unfetched: the chunks the host answered
// not-found frames for (the fallback path then walks the replicas),
// plus, after exhausted retries, the ones that never landed.
func (r *retrieval) getBatch(host string, ids []int) []int {
	c, sums := r.c, r.p.sums
	pending := ids
	var missed []int
	var got int64
	sp := r.budget.span.StartChild(tracing.CompClient, tracing.SpanChunkGet)
	sp.Annotate("chunk", sums[ids[0]].String())
	sp.Annotate("dialect", BinV1)
	sp.AnnotateInt("count", int64(len(ids)))
	err := c.doRetry(r.budget, sp,
		func() (*http.Request, error) {
			want := make([]Sum, len(pending))
			for k, i := range pending {
				want[k] = sums[i]
			}
			req, err := http.NewRequest(http.MethodPost, host+"/v1/bin/get", bytes.NewReader(encodeBinGet(want)))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", binContentType)
			c.setIdentity(req)
			c.setAPIVersion(req, host)
			if ids[0] == 0 && r.p.op != nil {
				req.Header.Set(FileRetrieveHeader, r.p.op.FileMD5)
			}
			return req, nil
		},
		func(resp *http.Response) error {
			defer resp.Body.Close()
			c.noteBin(host, resp.Header)
			if resp.StatusCode != http.StatusOK {
				return decodeError(resp)
			}
			if ids[0] == 0 {
				r.p.op = nil // recorded by the front-end before this 200
			}
			for len(pending) > 0 {
				i := pending[0]
				s := r.slot(i)
				f, err := readBinFrame(resp.Body, s, false)
				if err == nil && (f.sum != sums[i] || (!f.notFound && len(f.payload) != len(s))) {
					err = fmt.Errorf("mcsbin frame mismatch for chunk %d", i)
				}
				if err != nil {
					c.cfg.Metrics.refetch()
					return &corruptError{err: err}
				}
				pending = pending[1:]
				if f.notFound {
					missed = append(missed, i)
					continue
				}
				got += int64(len(s))
				r.landed <- i
			}
			return nil
		})
	sp.AnnotateInt("bytes", got)
	sp.EndErr(err)
	return append(missed, pending...)
}

// repair runs when the folded digest disagrees with metadata. The
// frame CRC guards the transport, not the content's identity: a frame
// forged with a valid CRC and the requested digest in its header
// passes it. So every chunk is now checked against its own digest, the
// ones that fail are re-fetched through the MD5-verified per-chunk
// path, and the file is checked again. When every chunk already
// matches, the chunk list itself disagrees with the file digest, and
// nothing the client could fetch would fix that.
func (r *retrieval) repair() error {
	var bad []int
	for i, sum := range r.p.sums {
		if SumBytes(r.slot(i)) != sum {
			bad = append(bad, i)
			r.c.cfg.Metrics.refetch()
		}
	}
	if len(bad) == 0 {
		return fmt.Errorf("%w: every chunk matches its digest, so the chunk list disagrees with the file digest", errFileDigest)
	}
	err := runWindow(r.c.window(len(bad)), len(bad), func(k int) error {
		return r.fetchSlot(bad[k])
	})
	if err != nil {
		return err
	}
	if SumBytes(r.buf) != r.p.file {
		return errFileDigest
	}
	return nil
}

// getChunk downloads and verifies one chunk; truncated or corrupted
// bodies count as transient failures and are re-fetched. The body is
// read into a pooled scratch buffer and the verified bytes are
// appended into dst (in place when dst has the capacity — a retrieval
// passes the chunk's slot in the assembled file, making the
// steady-state read allocation-free).
func (c *Client) getChunk(frontend string, sum Sum, budget *retryBudget, dst []byte) ([]byte, error) {
	var out []byte
	tries, base := 0, frontend
	sp := budget.span.StartChild(tracing.CompClient, tracing.SpanChunkGet)
	sp.Annotate("chunk", sum.String())
	err := c.doRetry(budget, sp,
		func() (*http.Request, error) {
			// The first attempt goes straight to the chunk's primary
			// owner when the client knows the ring (saving the
			// forwarding hop); retries fall back to the assigned
			// front-end, which can serve from any live replica.
			tries++
			base = frontend
			if tries == 1 {
				base = c.chunkTarget(budget.ctx, frontend, sum)
			}
			req, err := http.NewRequest(http.MethodGet, c.apiPath(base, "/chunk/"+sum.String()), nil)
			if err != nil {
				return nil, err
			}
			c.setIdentity(req)
			c.setAPIVersion(req, base)
			return req, nil
		},
		func(resp *http.Response) error {
			defer resp.Body.Close()
			if c.checkLegacy(base, resp) {
				io.Copy(io.Discard, resp.Body)
				return errLegacyRetry
			}
			if resp.StatusCode != http.StatusOK {
				return decodeError(resp)
			}
			scratch := getChunkBuf()
			defer putChunkBuf(scratch)
			n, overflow, err := readBody(resp.Body, *scratch)
			if err != nil {
				c.cfg.Metrics.refetch()
				return &corruptError{err: err}
			}
			data := (*scratch)[:n]
			if overflow || SumBytes(data) != sum {
				c.cfg.Metrics.refetch()
				return &corruptError{err: fmt.Errorf("chunk digest mismatch (%d bytes)", n)}
			}
			out = append(dst[:0], data...)
			return nil
		})
	sp.AnnotateInt("bytes", int64(len(out)))
	sp.EndErr(err)
	return out, err
}
