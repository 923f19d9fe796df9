// Package md5lanes computes the MD5 digests of up to 16 equal-length
// byte slices side by side. On amd64 CPUs with AVX-512F one pass of a
// 16-lane kernel hashes every lane, so n full-size chunks cost about
// what one costs through crypto/md5; everywhere else each lane goes
// through crypto/md5. Both paths return identical digests.
//
// Lanes fit independent messages of one length. One long message is a
// single chain of blocks, but a chain whose intermediate states are
// known splits into independent pieces: Advance carries each lane from
// a given chaining value over its whole blocks, and State and Resume
// move a chaining value out of and into crypto/md5.
package md5lanes

import (
	"crypto/md5"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
)

// Size is the length of an MD5 digest, and of a chaining value, in
// bytes.
const Size = md5.Size

// MaxLanes is the most lanes one Sum or Advance call takes.
const MaxLanes = 16

// accel selects the 16-lane kernel; it is set once at start-up from
// the CPU's features (tests switch it off to reach the fallback).
var accel = hasKernel()

// Accelerated reports whether Sum and Advance run the 16-lane kernel.
func Accelerated() bool { return accel }

// IV returns MD5's initial chaining value, the state before any block.
func IV() [Size]byte {
	return [Size]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10}
}

// checkLanes panics unless lanes holds 1 to MaxLanes slices of one
// length and outs has room for each: anything else is a caller bug.
func checkLanes(outs int, lanes [][]byte) {
	n := len(lanes)
	if n == 0 || n > MaxLanes || outs < n {
		panic(fmt.Sprintf("md5lanes: %d lanes into %d digests", n, outs))
	}
	for _, l := range lanes[1:] {
		if len(l) != len(lanes[0]) {
			panic("md5lanes: lanes differ in length")
		}
	}
}

// Sum writes the MD5 digest of lanes[i] to out[i]. It takes 1 to
// MaxLanes lanes, all of one length, and out must have room for every
// lane; anything else is a caller bug and panics. A lone lane goes
// through crypto/md5: the kernel's cost does not shrink with fewer
// lanes.
func Sum(out [][Size]byte, lanes [][]byte) {
	checkLanes(len(out), lanes)
	if !accel || len(lanes) == 1 {
		for i, l := range lanes {
			out[i] = md5.Sum(l)
		}
		return
	}
	sum16(out, lanes)
}

// Advance runs MD5's compression function over every block of
// lanes[i], starting from the chaining value states[i] and leaving the
// one after the last block there. No padding is added: the lanes are
// pieces of longer messages. It takes what Sum takes, with lengths
// that are a whole number of 64-byte blocks; anything else panics. A
// lone lane goes through crypto/md5.
func Advance(states [][Size]byte, lanes [][]byte) {
	checkLanes(len(states), lanes)
	if len(lanes[0])%md5.BlockSize != 0 {
		panic(fmt.Sprintf("md5lanes: %d-byte lanes are not whole blocks", len(lanes[0])))
	}
	if !accel || len(lanes) == 1 {
		for i, l := range lanes {
			h := Resume(states[i], 0)
			h.Write(l)
			states[i] = State(h)
		}
		return
	}
	var k kernel
	for i := range k.state[0] {
		k.load(i, states[i%len(lanes)])
	}
	k.run(lanes, len(lanes[0])/md5.BlockSize)
	for i := range lanes {
		states[i] = k.lane(i)
	}
}

// kernel is the 16-lane kernel's state: state[w][i] is word w of lane
// i's chaining value.
type kernel struct{ state [4][MaxLanes]uint32 }

func (k *kernel) load(i int, v [Size]byte) {
	for w := range k.state {
		k.state[w][i] = binary.LittleEndian.Uint32(v[4*w:])
	}
}

func (k *kernel) lane(i int) (v [Size]byte) {
	for w := range k.state {
		binary.LittleEndian.PutUint32(v[4*w:], k.state[w][i])
	}
	return v
}

// run compresses the first blocks 64-byte blocks of every lane. Kernel
// lanes past len(lanes) repeat earlier lanes' bytes; their results are
// never read.
func (k *kernel) run(lanes [][]byte, blocks int) {
	if blocks == 0 {
		return
	}
	var ptrs [MaxLanes]*byte
	for i := range ptrs {
		ptrs[i] = &lanes[i%len(lanes)][0]
	}
	block16(&k.state, &ptrs, blocks)
}

// sum16 runs the kernel from the initial value over every lane's whole
// blocks in place, then over the padded tails (one or two blocks, the
// same count in every lane since the lengths are equal).
func sum16(out [][Size]byte, lanes [][]byte) {
	size := len(lanes[0])
	var k kernel
	for i := range k.state[0] {
		k.load(i, IV())
	}
	whole := size / md5.BlockSize
	k.run(lanes, whole)
	rest := size - whole*md5.BlockSize
	tailBlocks := 1
	if rest >= md5.BlockSize-8 {
		tailBlocks = 2
	}
	var tails [MaxLanes][2 * md5.BlockSize]byte
	var tl [MaxLanes][]byte
	for i, l := range lanes {
		t := tails[i][:tailBlocks*md5.BlockSize]
		copy(t, l[whole*md5.BlockSize:])
		t[rest] = 0x80
		binary.LittleEndian.PutUint64(t[len(t)-8:], uint64(size)<<3)
		tl[i] = t
	}
	k.run(tl[:len(lanes)], tailBlocks)
	for i := range lanes {
		out[i] = k.lane(i)
	}
}

// crypto/md5's state encoding (encoding.BinaryMarshaler): a magic, the
// four state words big-endian, the 64-byte pending-block buffer, and
// the count of bytes written, big-endian. The hash package promises
// that later releases keep reading what earlier ones wrote.
const (
	stateMagic = "md5\x01"
	stateLen   = len(stateMagic) + Size + md5.BlockSize + 8
)

// Resume returns a crypto/md5 hash that continues a message whose
// first n bytes left the chaining value state: writing the rest of the
// message and summing gives the whole message's digest, padded for
// its full length. n must be a whole number of blocks; Resume(IV(), 0)
// is md5.New().
func Resume(state [Size]byte, n uint64) hash.Hash {
	if n%md5.BlockSize != 0 {
		panic(fmt.Sprintf("md5lanes: resume after %d bytes, not a whole number of blocks", n))
	}
	b := make([]byte, 0, stateLen)
	b = append(b, stateMagic...)
	for w := 0; w < 4; w++ {
		b = binary.BigEndian.AppendUint32(b, binary.LittleEndian.Uint32(state[4*w:]))
	}
	b = append(b, make([]byte, md5.BlockSize)...)
	b = binary.BigEndian.AppendUint64(b, n)
	h := md5.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
		panic("md5lanes: crypto/md5 refused its own state encoding: " + err.Error())
	}
	return h
}

// State returns the chaining value of a crypto/md5 hash (md5.New or
// Resume) that has taken a whole number of blocks. Anything else
// panics.
func State(h hash.Hash) [Size]byte {
	b, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || len(b) != stateLen || string(b[:len(stateMagic)]) != stateMagic {
		panic(fmt.Sprintf("md5lanes: unknown crypto/md5 state encoding (%d bytes, %v)", len(b), err))
	}
	if binary.BigEndian.Uint64(b[stateLen-8:])%md5.BlockSize != 0 {
		panic("md5lanes: state taken inside a block")
	}
	var v [Size]byte
	for w := 0; w < 4; w++ {
		binary.LittleEndian.PutUint32(v[4*w:], binary.BigEndian.Uint32(b[len(stateMagic)+4*w:]))
	}
	return v
}
