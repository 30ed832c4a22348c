package metrics

import (
	"strings"
	"testing"
)

func TestWriteProm(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, []Sample{
		{Name: "a_total", Value: 3},
		{Name: "lat", Labels: L("op", "get", "quantile", "0.99"), Value: 0.5},
		{Name: "esc", Labels: L("v", "a\"b\\c\nd"), Value: 1},
	})
	got := b.String()
	want := "a_total 3\n" +
		`lat{op="get",quantile="0.99"} 0.5` + "\n" +
		`esc{v="a\"b\\c\nd"} 1` + "\n"
	if got != want {
		t.Fatalf("WriteProm:\n%q\nwant\n%q", got, want)
	}
}

func TestLPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on odd label list")
		}
	}()
	L("only-key")
}
