// The float64 instantiation of the engine: every arith method is the
// raw operation, so runGeneric[float64, f64] — Model.Evaluate —
// performs exactly the float64 arithmetic of the DES stack, which the
// differential tests pin bit for bit against fast-forward replay.
package analytic

import "math"

// f64 is the plain-float64 arithmetic. Zero-size, so the generic
// engine instantiated at [float64, f64] carries no per-value overhead.
type f64 struct{}

func (f64) Const(c float64) float64  { return c }
func (f64) FromInt(n int) float64    { return float64(n) }
func (f64) Add(a, b float64) float64 { return a + b }
func (f64) Sub(a, b float64) float64 { return a - b }
func (f64) Mul(a, b float64) float64 { return a * b }
func (f64) Div(a, b float64) float64 { return a / b }
func (f64) Less(a, b float64) bool   { return a < b }
func (f64) LessEq(a, b float64) bool { return a <= b }
func (f64) Eq(a, b float64) bool     { return a == b }
func (f64) Cmp(a, b float64) int {
	if a < b {
		return -1
	}
	if a == b {
		return 0
	}
	return 1
}
func (f64) IsNaN(a float64) bool     { return a != a }
func (f64) IsInfPos(a float64) bool  { return math.IsInf(a, 1) }
func (f64) BitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
func (f64) Float(a float64) float64  { return a }
