package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// renderGrid is ParseGrid's inverse over a parsed grid: each scenario as
// "name=op,op", joined by ';'.
func renderGrid(g Grid) string {
	parts := make([]string, len(g.Scenarios))
	for i, s := range g.Scenarios {
		parts[i] = s.Name + "=" + OpsString(s.Ops)
	}
	return strings.Join(parts, ";")
}

// FuzzParseGrid pins the op codec tick journals replay through: ParseGrid
// never panics, every op it accepts renders through String to a spec that
// ParseOp turns back into the same op, and a re-rendered grid parses back
// to the same grid.
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		// Every op kind.
		"outage:AMS-IX",
		"latency:all:-3",
		"latency:city:2.5",
		"latency:country:0.125",
		"latency:continent:10",
		"churn:LINX:40:10",
		"traffic:1.5",
		"diurnal:-6",
		"portprice:0.5",
		"remoteprice:0.8",
		// The README and CI grids, and rpwhatif's default.
		"dark=outage:AMS-IX;surge=churn:LINX:40:10,traffic:1.5",
		"ams-outage=outage:AMS-IX;fast-pw=latency:city:-3",
		"ams-outage=outage:AMS-IX;cheap=remoteprice:0.5",
		"linx-surge=churn:LINX:3:1,traffic:1.2",
		"x=churn:DE-CIX:20:0",
		"ams-outage=outage:AMS-IX;fast-pseudowires=latency:city:-3;linx-surge=churn:LINX:40:10;traffic-surge=traffic:1.5;cheap-remote=remoteprice:0.5",
		// Inputs that could only fail or would silently mis-evaluate.
		"x=latency:city:NaN",
		"x=latency:city:1e13",
		"x=diurnal:1e300",
		"x=traffic:NaN",
		"x=churn:DE-CIX:-1:0",
		"x=latency:city:9e12,latency:city:9e12",
		"x=traffic:1e200,traffic:1e200",
		"x=diurnal:2.5e6,diurnal:2.5e6",
		// Malformed shapes.
		"", " ; ", "name=", "=outage:A", "outage:A=B", "a,b", "churn::1:2",
		"latency:orbit:3", "traffic:0x1p-2", "warp:9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGrid(spec)
		if err != nil {
			return
		}
		for _, s := range g.Scenarios {
			for _, op := range s.Ops {
				back, err := ParseOp(op.String())
				if err != nil || !reflect.DeepEqual(back, op) {
					t.Fatalf("op %#v renders as %q, which parses to %#v, %v", op, op.String(), back, err)
				}
			}
		}
		again, err := ParseGrid(renderGrid(g))
		if err != nil || !reflect.DeepEqual(again, g) {
			t.Fatalf("grid %q re-renders as %q, which parses to %+v, %v; want %+v", spec, renderGrid(g), again, err, g)
		}
	})
}
