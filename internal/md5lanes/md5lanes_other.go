//go:build !amd64

package md5lanes

func hasKernel() bool { return false }

func block16(*[4][MaxLanes]uint32, *[MaxLanes]*byte, int) {
	panic("md5lanes: no 16-lane kernel on this architecture")
}
