package md5lanes

import (
	"bytes"
	"crypto/md5"
	"encoding"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// chunkSize is the storage service's chunk length, the lanes' main use.
const chunkSize = 512 << 10

var lengths = []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 4096, chunkSize - 1, chunkSize}

// check compares Sum against crypto/md5 for every lane.
func check(t *testing.T, name string, lanes [][]byte) {
	t.Helper()
	out := make([][Size]byte, len(lanes))
	Sum(out, lanes)
	for i, l := range lanes {
		if want := md5.Sum(l); out[i] != want {
			t.Fatalf("%s: lane %d of %d (len %d): got %x, want %x", name, i, len(lanes), len(l), out[i], want)
		}
	}
}

// laneSets yields, for each lane count and length, lanes cut from one
// random buffer at distinct irregular offsets (almost all of them not
// 8-byte aligned), and the same count of lanes that all alias one
// slice.
func laneSets(f func(name string, lanes [][]byte)) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range lengths {
		buf := make([]byte, MaxLanes*(size+3)+1)
		rng.Read(buf)
		for n := 1; n <= MaxLanes; n++ {
			lanes := make([][]byte, n)
			same := make([][]byte, n)
			for i := range lanes {
				off := 1 + i*(size+3)
				lanes[i] = buf[off : off+size]
				same[i] = buf[1 : 1+size]
			}
			f(fmt.Sprintf("%d lanes x %d bytes", n, size), lanes)
			f(fmt.Sprintf("%d aliased lanes x %d bytes", n, size), same)
		}
	}
}

func TestSumMatchesMD5(t *testing.T) {
	t.Logf("16-lane AVX-512 kernel in use: %v", Accelerated())
	laneSets(func(name string, lanes [][]byte) { check(t, name, lanes) })
}

func TestSumFallback(t *testing.T) {
	defer func(old bool) { accel = old }(accel)
	accel = false
	laneSets(func(name string, lanes [][]byte) { check(t, name, lanes) })
}

func TestSumRejectsBadCalls(t *testing.T) {
	a, b := make([]byte, 64), make([]byte, 65)
	for name, call := range map[string]func(){
		"no lanes":       func() { Sum(make([][Size]byte, 1), nil) },
		"17 lanes":       func() { Sum(make([][Size]byte, 17), make([][]byte, 17)) },
		"short out":      func() { Sum(make([][Size]byte, 1), [][]byte{a, a}) },
		"unequal length": func() { Sum(make([][Size]byte, 2), [][]byte{a, b}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzMD5Lanes cuts n equal lanes of the input's length/n bytes, each
// rotated by its index so the lanes differ, and checks every digest.
// In chain mode the input is one message instead: its first n pieces
// of equal whole blocks are carried from their chaining values in one
// Advance pass, and the rest resumes from the last of them; the values
// and the final digest must match crypto/md5's single pass.
func FuzzMD5Lanes(f *testing.F) {
	f.Add([]byte("abc"), uint8(3), false)
	f.Add(make([]byte, 1000), uint8(16), false)
	f.Add(make([]byte, 127), uint8(2), false)
	f.Add(make([]byte, 1000), uint8(5), true)
	f.Add([]byte("abc"), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, n uint8, chain bool) {
		lanes := make([][]byte, int(n)%MaxLanes+1)
		if chain {
			checkChainFuzz(t, data, lanes)
			return
		}
		size := len(data) / len(lanes)
		for i := range lanes {
			l := make([]byte, size)
			for j := range l {
				l[j] = data[(i+j)%len(data)]
			}
			lanes[i] = l
		}
		check(t, "fuzz", lanes)
	})
}

func checkChainFuzz(t *testing.T, data []byte, lanes [][]byte) {
	size := len(data) / len(lanes) / md5.BlockSize * md5.BlockSize
	if size == 0 {
		size = md5.BlockSize
		lanes = lanes[:0]
	}
	cuts := make([]int, len(lanes))
	states := make([][Size]byte, len(lanes))
	for i := range lanes {
		lanes[i] = data[i*size : (i+1)*size]
		cuts[i] = (i + 1) * size
		states[i] = IV()
	}
	ref := refStates(data, cuts)
	for i := 1; i < len(states); i++ {
		states[i] = ref[i-1]
	}
	if len(lanes) > 0 {
		Advance(states, lanes)
	}
	for i := range states {
		if states[i] != ref[i] {
			t.Fatalf("piece %d of %d (%d bytes) ends at %x, want %x", i, len(lanes), size, states[i], ref[i])
		}
	}
	from, at := IV(), 0
	if len(lanes) > 0 {
		from, at = states[len(states)-1], len(lanes)*size
	}
	h := Resume(from, uint64(at))
	h.Write(data[at:])
	if got, want := [Size]byte(h.Sum(nil)), md5.Sum(data); got != want {
		t.Fatalf("resumed after %d bytes of %d: got %x, want %x", at, len(data), got, want)
	}
}

// blockLengths are the whole-block lane lengths Advance takes.
var blockLengths = []int{64, 128, 4096, chunkSize}

// refStates hashes msg through crypto/md5 and returns the chaining
// value after each of its first len(cuts) pieces, cuts[k] bytes into
// the message (each a whole number of blocks).
func refStates(msg []byte, cuts []int) [][Size]byte {
	h := md5.New()
	out := make([][Size]byte, len(cuts))
	at := 0
	for k, c := range cuts {
		h.Write(msg[at:c])
		at = c
		out[k] = State(h)
	}
	return out
}

// checkAdvance treats lanes[i] as the piece of one message that follows
// a random whole-block prefix of its own, starts each lane at the
// prefix's chaining value, and compares Advance with crypto/md5's
// chain over prefix and piece.
func checkAdvance(t *testing.T, name string, rng *rand.Rand, lanes [][]byte) {
	t.Helper()
	states := make([][Size]byte, len(lanes))
	want := make([][Size]byte, len(lanes))
	for i, l := range lanes {
		prefix := make([]byte, md5.BlockSize*rng.Intn(4))
		rng.Read(prefix)
		msg := append(prefix, l...)
		ref := refStates(msg, []int{len(prefix), len(msg)})
		states[i], want[i] = ref[0], ref[1]
	}
	Advance(states, lanes)
	for i := range lanes {
		if states[i] != want[i] {
			t.Fatalf("%s: lane %d of %d: got %x, want %x", name, i, len(lanes), states[i], want[i])
		}
	}
}

func testAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range blockLengths {
		buf := make([]byte, MaxLanes*(size+3)+1)
		rng.Read(buf)
		for n := 1; n <= MaxLanes; n++ {
			lanes := make([][]byte, n)
			for i := range lanes {
				off := 1 + i*(size+3)
				lanes[i] = buf[off : off+size]
			}
			checkAdvance(t, fmt.Sprintf("%d lanes x %d bytes", n, size), rng, lanes)
		}
	}
}

func TestAdvanceMatchesMD5(t *testing.T) { testAdvance(t) }

func TestAdvanceFallback(t *testing.T) {
	defer func(old bool) { accel = old }(accel)
	accel = false
	testAdvance(t)
}

// testChain cuts a 17-chunk file (more chunks than one lane pass
// takes) into chunks, carries every chunk but the last from its
// chaining value in lane passes of up to MaxLanes, and resumes the last
// chunk at every tail length from 0 to 129 bytes and at exactly
// chunkSize: each value and the final digest must match crypto/md5's
// single pass over the file.
func testChain(t *testing.T) {
	const chunks = 17
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, chunks*chunkSize)
	rng.Read(data)
	cuts := make([]int, chunks-1)
	for i := range cuts {
		cuts[i] = (i + 1) * chunkSize
	}
	ref := refStates(data, cuts)
	states := make([][Size]byte, chunks-1)
	lanes := make([][]byte, chunks-1)
	for i := range states {
		states[i] = IV()
		if i > 0 {
			states[i] = ref[i-1]
		}
		lanes[i] = data[i*chunkSize : (i+1)*chunkSize]
	}
	for lo := 0; lo < len(lanes); lo += MaxLanes {
		hi := min(lo+MaxLanes, len(lanes))
		Advance(states[lo:hi], lanes[lo:hi])
	}
	for i := range states {
		if states[i] != ref[i] {
			t.Fatalf("chunk %d ends at %x, want %x", i, states[i], ref[i])
		}
	}
	tails := []int{chunkSize}
	for n := 0; n <= 129; n++ {
		tails = append(tails, n)
	}
	last := (chunks - 1) * chunkSize
	for _, n := range tails {
		h := Resume(ref[chunks-2], uint64(last))
		h.Write(data[last : last+n])
		if got, want := [Size]byte(h.Sum(nil)), md5.Sum(data[:last+n]); got != want {
			t.Fatalf("%d-byte last chunk: got %x, want %x", n, got, want)
		}
	}
}

func TestChainAcrossLanePasses(t *testing.T) { testChain(t) }

func TestChainFallback(t *testing.T) {
	defer func(old bool) { accel = old }(accel)
	accel = false
	testChain(t)
}

// TestStateEncodingPinned pins crypto/md5's state encoding, which
// State and Resume build and read by hand: a fresh hash's encoding
// byte for byte, and the same encoding back from Resume at a later
// block boundary.
func TestStateEncodingPinned(t *testing.T) {
	const fresh = "6d643501" + "67452301efcdab8998badcfe10325476" +
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"0000000000000000"
	b, err := md5.New().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || hex.EncodeToString(b) != fresh {
		t.Fatalf("md5.New() encodes as %x (%v), want %s", b, err, fresh)
	}
	if got, err := Resume(IV(), 0).(encoding.BinaryMarshaler).MarshalBinary(); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Resume(IV(), 0) encodes as %x, want %x", got, b)
	}
	h := md5.New()
	h.Write(bytes.Repeat([]byte("chain"), 3*md5.BlockSize/5+1)[:3*md5.BlockSize])
	want, _ := h.(encoding.BinaryMarshaler).MarshalBinary()
	got, _ := Resume(State(h), 3*md5.BlockSize).(encoding.BinaryMarshaler).MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("Resume(State(h)) encodes as %x, want %x", got, want)
	}
}

func TestAdvanceRejectsBadCalls(t *testing.T) {
	a, b := make([]byte, 64), make([]byte, 65)
	for name, call := range map[string]func(){
		"no lanes":         func() { Advance(make([][Size]byte, 1), nil) },
		"short states":     func() { Advance(make([][Size]byte, 1), [][]byte{a, a}) },
		"partial block":    func() { Advance(make([][Size]byte, 1), [][]byte{b}) },
		"resume mid-block": func() { Resume(IV(), 65) },
		"state mid-block":  func() { h := md5.New(); h.Write(b); State(h) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
