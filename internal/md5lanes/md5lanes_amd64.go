package md5lanes

import "runtime"

// block16 runs MD5's compression function over n 64-byte blocks at
// ptrs[i] for each of the 16 lanes, updating state[w][i], word w of
// lane i's chaining value.
//
//go:noescape
func block16(state *[4][MaxLanes]uint32, ptrs *[MaxLanes]*byte, n int)

func hasAVX512F() bool

// hasKernel gates the kernel on AVX-512F with OS support for the ZMM
// state. macOS grants that state on first use, so XCR0 does not show
// it up front there; the kernel stays off on darwin.
func hasKernel() bool { return runtime.GOOS != "darwin" && hasAVX512F() }
