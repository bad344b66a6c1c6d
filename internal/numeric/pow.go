package numeric

import (
	"math"
	"runtime"
)

// The integer fast path of Pow covers |y| ≤ powMaxExp and
// powMinAbs ≤ |x| ≤ powMaxAbs. Inside that box every power x^k with
// k ≤ powMaxExp, and its reciprocal, lies in [2^-960, 2^960]: a normal
// float64, far from both overflow and the subnormal range.
const (
	powMaxExp = 8
	powMinAbs = 0x1p-120
	powMaxAbs = 0x1p120
)

// Pow returns math.Pow(x, y), bit for bit, for every x and y.
//
// For a small integer exponent and a moderate base it skips math.Pow's
// special-case cascade, Modf and Frexp/Ldexp bookkeeping: math.Pow
// raises the frexp mantissa of x by square-and-multiply and rescales by
// a power of two at the end, and this path runs the same multiplies and
// the final reciprocal on x itself. Scaling by a power of two commutes
// with round-to-nearest while every intermediate stays a normal float,
// which the range guards ensure, so each product rounds to the same
// significand. Hence Pow(L, -2) == 1/(L*L) and Pow(w, 3) == w*(w*w).
// Every other input goes to math.Pow.
//
// This is the kernel of the solvers' closed-form energy terms β·w^λ and
// L^{1−λ} with the integral λ of the paper's platforms.
func Pow(x, y float64) float64 {
	// s390x implements math.Pow in assembly, so its rounding is not the
	// portable square-and-multiply this path reproduces.
	if runtime.GOARCH == "s390x" || !(y >= -powMaxExp && y <= powMaxExp) {
		return math.Pow(x, y)
	}
	n := int(y)
	if float64(n) != y { //lint:allow floatcmp: exact integrality test of the exponent; an off-by-ulp y must take math.Pow
		return math.Pow(x, y)
	}
	if ax := math.Abs(x); !(ax >= powMinAbs && ax <= powMaxAbs) {
		return math.Pow(x, y)
	}
	neg := n < 0
	if neg {
		n = -n
	}
	// Same order as math.Pow: multiply the accumulator by the current
	// square when the low bit is set, then square. The float64
	// conversions forbid fusing a product into a caller's addition.
	acc, p := 1.0, x
	for {
		if n&1 == 1 {
			acc = float64(acc * p)
		}
		n >>= 1
		if n == 0 {
			break
		}
		p = float64(p * p)
	}
	if neg {
		return float64(1 / acc)
	}
	return acc
}
