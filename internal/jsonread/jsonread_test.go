package jsonread

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestNumberGrammar: Number accepts exactly the numbers encoding/json
// accepts, and reads each to its end.
func TestNumberGrammar(t *testing.T) {
	for _, num := range []string{
		"0", "-0", "7", "-12", "1.5", "0.25", "1e9", "1E+9", "2.5e-3", "18446744073709551615",
		"01", "-", "+1", "1.", ".5", "1e", "1e+", "--1", "0x1", "1_0", "Infinity", "NaN", "",
	} {
		r := New([]byte(num))
		tok, err := r.Number()
		if err == nil {
			err = r.End()
		}
		if ok := json.Valid([]byte(num)); (err == nil) != ok {
			t.Errorf("%q: Number error %v, encoding/json valid %v", num, err, ok)
		} else if ok && string(tok) != num {
			t.Errorf("%q: read %q", num, tok)
		}
	}
}

// TestStringsDecodeAsEncodingJSON: a string reads to encoding/json's value
// for it, escapes and invalid UTF-8 included; a malformed one is an error.
func TestStringsDecodeAsEncodingJSON(t *testing.T) {
	for _, q := range []string{
		`"gzip"`, `""`, `"a b"`, `"gzip"`, `"<>&"`, `"tab\there"`, `"\"q\"\\"`,
		`"größe"`, "\"bad \xff utf8\"", `"😀"`, `"\ud800"`, `"\/"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(q), &want); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r := New([]byte(q))
		got, err := r.String()
		if err != nil || got != want {
			t.Errorf("String(%s) = %q, %v; want %q", q, got, err, want)
		}
		r = New([]byte(q))
		if b, err := r.AppendString([]byte("x")); err != nil || string(b) != "x"+want {
			t.Errorf("AppendString(%s) = %q, %v", q, b, err)
		}
	}
	for _, q := range []string{`"open`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"new\nline\"", `gzip`, `null`, `"trail\`} {
		r := New([]byte(q))
		if s, err := r.String(); err == nil {
			t.Errorf("String(%s) = %q, want an error", q, s)
		}
	}
}

// TestObjectStrictness: keys match as written, once each; null is no
// value of a type; nothing may follow the document.
func TestObjectStrictness(t *testing.T) {
	read := func(doc string) (map[string]string, error) {
		r := New([]byte(doc))
		got := map[string]string{}
		err := r.Object(func(key []byte) error {
			if string(key) != "a" && string(key) != "b" {
				return UnknownField(key)
			}
			v, err := r.String()
			got[string(key)] = v
			return err
		})
		if err == nil {
			err = r.End()
		}
		return got, err
	}
	if got, err := read(" { \"a\" : \"1\" ,\n\"b\":\"2\" }\n"); err != nil || got["a"] != "1" || got["b"] != "2" {
		t.Fatalf("valid object: %v, %v", got, err)
	}
	if _, err := read(`{}`); err != nil {
		t.Fatalf("empty object: %v", err)
	}
	for doc, want := range map[string]string{
		`{"a":"1","a":"2"}`: "duplicate key",
		`{"A":"1"}`:         "unknown field",
		`{"\u0061":"1"}`:    "unknown field",
		`{"a":null}`:        "expected a string",
		`{"a":"1"} x`:       "data after the document",
		`{"a":"1",}`:        "expected a string",
		`{"a" "1"}`:         "expected ':'",
		`{"a":"1"`:          "expected ','",
		`["a"]`:             "expected an object",
	} {
		if _, err := read(doc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one mentioning %q", doc, err, want)
		}
	}
}

// TestRawSpans: Raw returns a container's exact bytes, brackets and
// quotes inside strings included, and bounds nothing it cannot close.
func TestRawSpans(t *testing.T) {
	doc := ` [{"n":"]}\"["},[1,2]] , {"x":"}"}`
	r := New([]byte(doc))
	for _, want := range []string{`[{"n":"]}\"["},[1,2]]`, `{"x":"}"}`} {
		got, err := r.Raw()
		if err != nil || string(got) != want {
			t.Fatalf("Raw = %q, %v; want %q", got, err, want)
		}
		r.next()
		r.pos++ // the comma, then the end
	}
	for _, doc := range []string{`[1,2`, `{"a":"]}`, `"s"`, `1`} {
		r := New([]byte(doc))
		if got, err := r.Raw(); err == nil {
			t.Errorf("Raw(%s) = %q, want an error", doc, got)
		}
	}
}
