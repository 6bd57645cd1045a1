package core

import "testing"

func TestFootprintBuild(t *testing.T) {
	var f Footprint
	f.AddShard(3)
	f.AddShard(1)
	f.AddShard(3)
	f.AddBank(5)
	f.AddBank(0)
	f.AddBank(5)
	f.AddBank(-1) // "no bank" sentinel is dropped
	if f.String() != "footprint{shards [1 3] banks [0 5]}" {
		t.Fatalf("footprint = %v, want shards [1 3] banks [0 5]", &f)
	}
}

func TestFootprintDisjoint(t *testing.T) {
	fp := func(shards, banks []int) *Footprint {
		f := &Footprint{}
		for _, s := range shards {
			f.AddShard(s)
		}
		for _, b := range banks {
			f.AddBank(b)
		}
		return f
	}
	cases := []struct {
		name string
		a, b *Footprint
		want bool
	}{
		{"empty-empty", fp(nil, nil), fp(nil, nil), true},
		{"distinct", fp([]int{0}, []int{1}), fp([]int{1}, []int{2}), true},
		{"same-shard", fp([]int{0, 2}, nil), fp([]int{2, 3}, nil), false},
		{"same-bank", fp([]int{0}, []int{4}), fp([]int{1}, []int{4}), false},
	}
	for _, tc := range cases {
		if got := tc.a.Disjoint(tc.b); got != tc.want {
			t.Errorf("%s: Disjoint(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Disjoint(tc.a); got != tc.want {
			t.Errorf("%s (flipped): Disjoint(%v, %v) = %v, want %v", tc.name, tc.b, tc.a, got, tc.want)
		}
	}
}
