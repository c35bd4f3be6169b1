package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpochLEQMatchesExpandedClock(t *testing.T) {
	d := VC{3, 1, 4}
	cases := []struct {
		e    Epoch
		want bool
	}{
		{Epoch{T: 0, C: 3}, true},
		{Epoch{T: 0, C: 4}, false},
		{Epoch{T: 2, C: 4}, true},
		{Epoch{T: 2, C: 5}, false},
		{Epoch{T: 7, C: 1}, false}, // beyond the dense prefix: d(7) = 0
	}
	for _, c := range cases {
		if got := c.e.LEQ(d); got != c.want {
			t.Errorf("%s ⊑ %s = %v, want %v", c.e, d, got, c.want)
		}
		// The explicit expansion must agree.
		if got := c.e.VC().LEQ(d); got != c.want {
			t.Errorf("expanded %s ⊑ %s = %v, want %v", c.e.VC(), d, got, c.want)
		}
	}
}

func TestEpochOfAndVC(t *testing.T) {
	c := VC{0, 5, 2}
	e := EpochOf(1, c)
	if e.T != 1 || e.C != 5 {
		t.Fatalf("epoch = %s", e)
	}
	if !e.VC().Equal(VC{0, 5}) {
		t.Fatalf("expanded = %s", e.VC())
	}
	if EpochOf(9, c).C != 0 {
		t.Fatal("entry beyond dense prefix must read 0 (not epochable)")
	}
	if e.String() != "5@t1" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestJoinEpoch(t *testing.T) {
	c := VC{2, 2}.JoinEpoch(Epoch{T: 1, C: 7})
	if !c.Equal(VC{2, 7}) {
		t.Fatalf("join = %s", c)
	}
	c = c.JoinEpoch(Epoch{T: 1, C: 3}) // lower epoch is a no-op
	if !c.Equal(VC{2, 7}) {
		t.Fatalf("join = %s", c)
	}
	c = c.JoinEpoch(Epoch{T: 4, C: 1}) // grows the prefix
	if !c.Equal(VC{2, 7, 0, 0, 1}) {
		t.Fatalf("join = %s", c)
	}
}

// TestPropLEQFastPathsAgree: the length-specialized LEQ must agree with the
// naive pointwise definition on random clocks of mismatched lengths.
func TestPropLEQFastPathsAgree(t *testing.T) {
	naiveLEQ := func(c, d VC) bool {
		n := len(c)
		if len(d) > n {
			n = len(d)
		}
		for i := 0; i < n; i++ {
			if c.Get(Tid(i)) > d.Get(Tid(i)) {
				return false
			}
		}
		return true
	}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, d := randClock(r), randClock(r)
		if r.Intn(3) == 0 {
			d = c.Clone() // force the comparable case sometimes
		}
		if c.LEQ(d) != naiveLEQ(c, d) {
			t.Logf("c=%s d=%s", c, d)
			return false
		}
		if got, want := c.Join(d.Clone()).Equal(naiveJoin(c, d)), true; got != want {
			t.Logf("join mismatch c=%s d=%s", c, d)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func naiveJoin(c, d VC) VC {
	n := len(c)
	if len(d) > n {
		n = len(d)
	}
	out := make(VC, n)
	for i := range out {
		a, b := c.Get(Tid(i)), d.Get(Tid(i))
		if a > b {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

func randClock(r *rand.Rand) VC {
	c := make(VC, r.Intn(6))
	for i := range c {
		c[i] = uint64(r.Intn(4))
	}
	return c
}
