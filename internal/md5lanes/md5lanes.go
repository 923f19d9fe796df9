// Package md5lanes computes the MD5 digests of up to 16 equal-length
// byte slices side by side. On amd64 CPUs with AVX-512F one pass of a
// 16-lane kernel hashes every lane, so n full-size chunks cost about
// what one costs through crypto/md5; everywhere else each lane goes
// through crypto/md5. Both paths return identical digests.
//
// Lanes fit only independent messages of one length: one long message
// is a single chain of blocks and gains nothing here.
package md5lanes

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
)

// Size is the length of an MD5 digest in bytes.
const Size = md5.Size

// MaxLanes is the most lanes one Sum call takes.
const MaxLanes = 16

// accel selects the 16-lane kernel; it is set once at start-up from
// the CPU's features (tests switch it off to reach the fallback).
var accel = hasKernel()

// Accelerated reports whether Sum runs the 16-lane kernel.
func Accelerated() bool { return accel }

// Sum writes the MD5 digest of lanes[i] to out[i]. It takes 1 to
// MaxLanes lanes, all of one length, and out must have room for every
// lane; anything else is a caller bug and panics. A lone lane goes
// through crypto/md5: the kernel's cost does not shrink with fewer
// lanes.
func Sum(out [][Size]byte, lanes [][]byte) {
	n := len(lanes)
	if n == 0 || n > MaxLanes || len(out) < n {
		panic(fmt.Sprintf("md5lanes: %d lanes into %d digests", n, len(out)))
	}
	for _, l := range lanes[1:] {
		if len(l) != len(lanes[0]) {
			panic("md5lanes: lanes differ in length")
		}
	}
	if !accel || n == 1 {
		for i, l := range lanes {
			out[i] = md5.Sum(l)
		}
		return
	}
	sum16(out, lanes)
}

// sum16 runs the kernel over every lane's whole blocks in place, then
// over the padded tails (one or two blocks, the same count in every
// lane since the lengths are equal). Kernel lanes past n repeat
// earlier lanes' bytes and their results are dropped.
func sum16(out [][Size]byte, lanes [][]byte) {
	n, size := len(lanes), len(lanes[0])
	state := [4][MaxLanes]uint32{}
	for i := range state[0] {
		state[0][i], state[1][i], state[2][i], state[3][i] = 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476
	}
	var ptrs [MaxLanes]*byte
	whole := size / md5.BlockSize
	if whole > 0 {
		for i := range ptrs {
			ptrs[i] = &lanes[i%n][0]
		}
		block16(&state, &ptrs, whole)
	}
	rest := size - whole*md5.BlockSize
	tailBlocks := 1
	if rest >= md5.BlockSize-8 {
		tailBlocks = 2
	}
	var tails [MaxLanes][2 * md5.BlockSize]byte
	for i, l := range lanes {
		t := tails[i][:tailBlocks*md5.BlockSize]
		copy(t, l[whole*md5.BlockSize:])
		t[rest] = 0x80
		binary.LittleEndian.PutUint64(t[len(t)-8:], uint64(size)<<3)
	}
	for i := range ptrs {
		ptrs[i] = &tails[i%n][0]
	}
	block16(&state, &ptrs, tailBlocks)
	for i := range out[:n] {
		for w := range state {
			binary.LittleEndian.PutUint32(out[i][4*w:], state[w][i])
		}
	}
}
