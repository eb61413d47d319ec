package profile

import (
	"strings"
	"testing"
)

func TestAccumulation(t *testing.T) {
	p := New(3)
	p.AddComputation(0, 1.5)
	p.AddCommunication(0, 0.5)
	p.AddRemapping(1, 0.25)
	p.AddComputation(1, 2.0)
	if got := p.Nodes[0].Total(); got != 2.0 {
		t.Errorf("node 0 total = %v, want 2", got)
	}
	s := p.Sum()
	if s.Computation != 3.5 || s.Communication != 0.5 || s.Remapping != 0.25 {
		t.Errorf("Sum = %+v", s)
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{Computation: 1, Communication: 2, Remapping: 3}
	a.Add(Breakdown{Computation: 0.5, Communication: 0.5, Remapping: 0.5})
	if a.Computation != 1.5 || a.Communication != 2.5 || a.Remapping != 3.5 {
		t.Errorf("Add = %+v", a)
	}
}

func TestStringHasAllNodes(t *testing.T) {
	p := New(4)
	out := p.String()
	if got := strings.Count(out, "\n"); got != 5 { // header + 4 rows
		t.Errorf("String has %d lines, want 5:\n%s", got, out)
	}
}
