package md5lanes

import (
	"crypto/md5"
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
func FuzzMD5Lanes(f *testing.F) {
	f.Add([]byte("abc"), uint8(3))
	f.Add(make([]byte, 1000), uint8(16))
	f.Add(make([]byte, 127), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		lanes := make([][]byte, int(n)%MaxLanes+1)
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
