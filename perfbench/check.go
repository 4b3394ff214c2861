package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/exper"
	"replicatree/internal/serve"
	"replicatree/internal/tree"
)

// checkPlacement requires the modes, servers, reused and cost fields of
// a GET /placement body to be byte-identical to the JSON encoding of
// want, the cold reference solve.
func checkPlacement(body []byte, want *core.MinCostResult) error {
	var got map[string]json.RawMessage
	if err := decode("placement", body, &got); err != nil {
		return err
	}
	modes := make([]int, want.Placement.N())
	for j := range modes {
		modes[j] = int(want.Placement.Mode(j))
	}
	fields := []struct {
		name string
		v    any
	}{{"modes", modes}, {"servers", want.Servers}, {"reused", want.Reused}, {"cost", want.Cost}}
	for _, f := range fields {
		exp, err := json.Marshal(f.v)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[f.name], exp) {
			return fmt.Errorf("placement %s differs from the cold reference: got %.80s, want %.80s", f.name, got[f.name], exp)
		}
	}
	return nil
}

// checkEval requires a GET /eval body to conserve demand, and to lose
// none of it when no node is down.
func checkEval(body []byte, down int) error {
	var r serve.EvalResult
	if err := decode("eval", body, &r); err != nil {
		return err
	}
	if r.Issued != r.Served+r.Unserved+r.FailUnserved {
		return fmt.Errorf("eval at tick %d does not conserve demand: issued %d != served %d + unserved %d + fail_unserved %d",
			r.Tick, r.Issued, r.Served, r.Unserved, r.FailUnserved)
	}
	if down == 0 && r.Unserved != 0 {
		return fmt.Errorf("eval at tick %d with nothing down left %d requests unserved", r.Tick, r.Unserved)
	}
	if r.DownNodes != down {
		return fmt.Errorf("eval at tick %d reports %d nodes down, %d were sent", r.Tick, r.DownNodes, down)
	}
	return nil
}

// checkExp3 requires the optimal DP to dominate the greedy sweep at
// every cost bound.
func checkExp3(res *exper.Exp3Result) error {
	for _, p := range res.Points {
		switch {
		case p.DPFound < p.GRFound:
			return fmt.Errorf("bound %v: DP found %d solutions, greedy %d", p.Bound, p.DPFound, p.GRFound)
		case p.DPInv < p.GRInv:
			return fmt.Errorf("bound %v: DP inverse power %v below greedy %v", p.Bound, p.DPInv, p.GRInv)
		case p.GRExcessPct < 0:
			return fmt.Errorf("bound %v: greedy excess power %v%% is negative", p.Bound, p.GRExcessPct)
		}
	}
	return nil
}

// replicasOf builds a replica set from a placement's modes.
func replicasOf(modes []int) *tree.Replicas {
	r := tree.NewReplicas(len(modes))
	for j, m := range modes {
		if m != 0 {
			r.Set(j, uint8(m))
		}
	}
	return r
}
