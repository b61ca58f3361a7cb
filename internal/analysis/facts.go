package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
)

// factStore holds package facts keyed by (package path, analyzer,
// concrete fact type). The unitchecker fills one from the dependency
// vetx files cmd/go hands it and serializes the current package's
// exports back out.
type factStore struct {
	m map[factKey]Fact
}

type factKey struct {
	pkg      string
	analyzer string
	typ      reflect.Type
}

func newFactStore() *factStore { return &factStore{m: make(map[factKey]Fact)} }

func (s *factStore) set(pkg, analyzer string, fact Fact) {
	s.m[factKey{pkg, analyzer, reflect.TypeOf(fact)}] = fact
}

// get copies the stored fact into out (which must be a pointer of the
// same concrete type) and reports whether one was present.
func (s *factStore) get(pkg, analyzer string, out Fact) bool {
	f, ok := s.m[factKey{pkg, analyzer, reflect.TypeOf(out)}]
	if !ok {
		return false
	}
	// Facts are pointers to structs; copy the pointee so callers
	// cannot mutate the stored fact.
	reflect.ValueOf(out).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// factBlob is the on-disk unit of the vetx format: one fact, gob-coded
// through the Fact interface (concrete types are gob.Registered from
// Analyzer.FactTypes).
type factBlob struct {
	Pkg      string
	Analyzer string
	Fact     Fact
}

// registerFactTypes makes every analyzer's fact types known to gob.
func registerFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// readVetx merges the facts serialized in file into the store. A
// missing or empty file contributes nothing; a corrupt one is an
// error (silently dropping facts would silently drop diagnostics).
func (s *factStore) readVetx(file string) error {
	data, err := os.ReadFile(file)
	if err != nil || len(data) == 0 {
		return nil // absent or empty: the dependency exported no facts
	}
	var blobs []factBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blobs); err != nil {
		return fmt.Errorf("analysis: corrupt facts file %s: %v", file, err)
	}
	for _, b := range blobs {
		s.set(b.Pkg, b.Analyzer, b.Fact)
	}
	return nil
}

// writeVetx serializes every stored fact to file (the unitchecker
// stores only the current package's exports plus re-exported
// dependency facts, so "everything" is the right scope).
func (s *factStore) writeVetx(file string) error {
	blobs := make([]factBlob, 0, len(s.m))
	for k, f := range s.m {
		blobs = append(blobs, factBlob{Pkg: k.pkg, Analyzer: k.analyzer, Fact: f})
	}
	var buf bytes.Buffer
	if len(blobs) > 0 {
		if err := gob.NewEncoder(&buf).Encode(blobs); err != nil {
			return fmt.Errorf("analysis: encode facts: %v", err)
		}
	}
	return os.WriteFile(file, buf.Bytes(), 0o666)
}
