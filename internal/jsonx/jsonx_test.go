package jsonx

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var edgeStrings = []string{
	"", "plain", "region-17", `say "hi"`, `back\slash`, "tab\tnewline\nreturn\r", "\b\f", "nul\x00\x01\x1f",
	"<script>&amp;</script>", "del\x7f", "caf\u00e9 \u4e16\u754c \U0001F600", "line\u2028sep\u2029par",
	"bad\xffutf8", "\xc3", "\xe2\x80", "\xed\xa0\x80", strings.Repeat("x", 300) + "\"",
}

// FuzzAppendJSONString: for any string the appender's output is
// json.Marshal's, and the scanner reads it back as encoding/json does.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range edgeStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		sc := Scanner{Data: got}
		if v, ok := sc.String(); !ok || string(v) != back || !sc.End() {
			t.Fatalf("String() of %s = %q, %v; want %q", got, v, ok, back)
		}
	})
}
