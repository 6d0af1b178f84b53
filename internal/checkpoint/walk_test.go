package checkpoint_test

// Every checkpointed type has one walk. This file holds what all of them
// must satisfy, as one table: a value survives encode → decode field by
// field, the golden corpus's config sections re-encode to themselves,
// and (FuzzConfigWalk) arbitrary bytes never do worse than be rejected.

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
)

// walkCase is one walk with its type erased.
type walkCase struct {
	name string
	// golden names the corpus files whose "config" section the walk
	// reads (none for a part of a config).
	golden []string
	// roundTrip fills a value at random, every settable field at any
	// depth except the named unrecorded ones, and demands it back from
	// its encoding. A field that is neither walked nor listed fails:
	// adding a field to a checkpointed type forces the decision.
	roundTrip func(t *testing.T, rng *rand.Rand)
	// reencode decodes b and encodes the value again.
	reencode func(b []byte) ([]byte, error)
}

func walkOf[T any](name string, walk func(*checkpoint.Codec, *T), golden []string, unrecorded ...string) walkCase {
	skip := map[string]bool{}
	for _, field := range unrecorded {
		skip[field] = true
	}
	return walkCase{
		name:   name,
		golden: golden,
		roundTrip: func(t *testing.T, rng *rand.Rand) {
			var want, got T
			fill(rng, reflect.ValueOf(&want).Elem(), skip)
			if err := checkpoint.Decode(walk, checkpoint.Encode(walk, &want), &got); err != nil {
				t.Fatalf("decoding its own encoding: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("did not survive the round trip:\n want %+v\n got  %+v", want, got)
			}
		},
		reencode: func(b []byte) ([]byte, error) {
			var v T
			if err := checkpoint.Decode(walk, b, &v); err != nil {
				return nil, err
			}
			return checkpoint.Encode(walk, &v), nil
		},
	}
}

func walkCases() []walkCase {
	return []walkCase{
		// The corpus holds two instaplc configs: the plain Fig. 5 run and
		// a chaos cell, which carries a generated fault plan.
		walkOf("instaplc", instaplc.WalkConfig, []string{"instaplc", "chaos"}, "Sinks"),
		walkOf("plan", faults.WalkPlan, nil), // *Plan: nil, empty and populated
	}
}

// fill sets v to a random value of its type.
func fill(rng *rand.Rand, v reflect.Value, skip map[string]bool) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Uint64()))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e6)
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Slice:
		if n := rng.Intn(4); n > 0 { // an empty slice decodes to nil
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rng, v.Index(i), skip)
			}
		}
	case reflect.Pointer:
		if rng.Intn(2) == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem(), skip)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && !skip[f.Name] {
				fill(rng, v.Field(i), skip)
			}
		}
	default:
		panic("no filler for " + v.Type().String())
	}
}

// goldenConfig returns the "config" section of a golden corpus file.
func goldenConfig(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	file, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	config, ok := file.Section("config")
	if !ok {
		t.Fatalf("golden-%s.ckpt has no config section", name)
	}
	return config
}

func TestWalks(t *testing.T) {
	for _, c := range walkCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 64; i++ {
				c.roundTrip(t, rng)
			}
			for _, name := range c.golden {
				config := goldenConfig(t, name)
				if again, err := c.reencode(config); err != nil || !bytes.Equal(again, config) {
					t.Errorf("golden-%s.ckpt: config re-encodes as %x (err %v), was %x", name, again, err, config)
				}
			}
		})
	}
}

// FuzzConfigWalk: a config walk reads bytes from outside the program (a
// -resume file). It must never panic, and what it accepts it must have understood: the value
// re-encodes to bytes that decode to the same value again (compared as
// encodings, so a NaN equals itself). Nothing is built from the value.
// kind picks the walk; the seeds are the corpus's config sections.
func FuzzConfigWalk(f *testing.F) {
	var kinds []walkCase
	for _, c := range walkCases() {
		for _, name := range c.golden {
			f.Add(uint8(len(kinds)), goldenConfig(f, name))
		}
		if c.golden != nil {
			kinds = append(kinds, c)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		c := kinds[int(kind)%len(kinds)]
		second, err := c.reencode(data)
		if err != nil {
			return
		}
		third, err := c.reencode(second)
		if err != nil || !bytes.Equal(third, second) {
			t.Fatalf("%s: an accepted input does not round-trip (err %v):\n in  %x\n 2nd %x\n 3rd %x", c.name, err, data, second, third)
		}
	})
}
