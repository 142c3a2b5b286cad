package trace

import "testing"

// TestCollectives: conv/barrier multiplicities are counted through
// nested repeats without unfolding.
func TestCollectives(t *testing.T) {
	ops := []Op{
		{Count: 1, Rec: Record{Kind: KindCompute, NS: 5}},
		{Count: 3, Body: []Op{
			{Count: 2, Rec: Record{Kind: KindConv}},
			{Count: 4, Body: []Op{
				{Count: 1, Rec: Record{Kind: KindBarrier}},
			}},
		}},
		{Count: 5, Rec: Record{Kind: KindConv}},
	}
	convs, bars := Collectives(ops)
	if convs != 3*2+5 || bars != 3*4 {
		t.Fatalf("Collectives = (%d, %d), want (11, 12)", convs, bars)
	}
}
