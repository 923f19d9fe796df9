package storage

import (
	"fmt"
	"time"
)

// Download is a resumable retrieval. The paper observes that 28 % of
// retrieved files are ~150 MB and recommends "support for resuming a
// failed download, to avoid downloading from the beginning after
// failures that could be frequent for mobile network" (§3.1.4).
// A Download keeps the chunk manifest and completed prefix, so Resume
// continues from the first missing chunk after any error.
// The file assembles in place: the full buffer is allocated once and
// every chunk downloads straight into its slot, so a resume-heavy
// 150 MB retrieval costs one allocation instead of one per chunk plus
// a final assembly copy.
type Download struct {
	c    *Client
	p    *retrievePlan
	buf  []byte // the assembling file
	have []bool // per-chunk completion
	done int    // chunks fetched so far
}

// NewDownload resolves url and issues the file retrieval operation
// request, returning a Download ready to Resume. The request always
// goes out on its own: a Download fetches chunk by chunk over the
// per-chunk path, so no batch would carry it.
func (c *Client) NewDownload(url string) (*Download, error) {
	p, err := c.openRetrieve(url, c.newBudget(), false)
	if err != nil {
		return nil, err
	}
	return &Download{
		c:    c,
		p:    p,
		buf:  make([]byte, p.size),
		have: make([]bool, len(p.sums)),
	}, nil
}

// Done reports how many chunks have been fetched.
func (d *Download) Done() int { return d.done }

// Total reports the chunk count of the file.
func (d *Download) Total() int { return len(d.p.sums) }

// Complete reports whether every chunk has arrived.
func (d *Download) Complete() bool { return d.done == len(d.p.sums) }

// Resume fetches the remaining chunks sequentially, stopping at the
// first error; already-fetched chunks are never re-transferred. Call
// it again after a failure to continue where it left off. Each Resume
// gets a fresh retry budget.
func (d *Download) Resume() error {
	budget := d.c.newBudget()
	for i := range d.p.sums {
		if d.have[i] {
			continue
		}
		if d.done > 0 && d.c.InterChunkDelay != nil {
			time.Sleep(d.c.InterChunkDelay())
		}
		// getSlot reads into a pooled scratch buffer and copies the
		// verified bytes straight into this chunk's slot of the file.
		if err := d.c.getSlot(d.p, d.buf, i, budget); err != nil {
			return fmt.Errorf("chunk %d/%d: %w", i+1, len(d.p.sums), err)
		}
		d.have[i] = true
		d.done++
	}
	return nil
}

// Bytes returns the assembled file; it errors if the download is
// incomplete or does not hash to the file digest metadata holds — the
// check RetrieveFile makes. The slice is the download's internal
// assembly buffer (no final copy); it stays valid after the Download
// is dropped.
func (d *Download) Bytes() ([]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("storage: download incomplete (%d/%d chunks)", d.done, len(d.p.sums))
	}
	if SumBytes(d.buf) != d.p.file {
		return nil, errFileDigest
	}
	return d.buf, nil
}
