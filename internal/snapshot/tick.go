package snapshot

import (
	"encoding/json"
	"fmt"

	"remotepeering/internal/econ"
	"remotepeering/internal/netflow"
)

// TickState is the evolution layer of a snapshot: where in a living
// world's timeline this snapshot sits, and the regime state that ops have
// accumulated up to that tick (the traffic configuration after scale and
// diurnal drifts, the price vector after price walks). A tick engine
// resuming from a checkpoint restores this alongside the world, then
// replays the journal tail; a snapshot without it is an ordinary frozen
// world at tick 0.
//
// The payload is JSON inside the tick section — tiny, additive, and
// debuggable — while the section's directory CRC still covers every
// byte.
type TickState struct {
	// Tick is the world's position on its timeline.
	Tick uint64 `json:"tick"`
	// Seed is the evolution seed events were generated from.
	Seed int64 `json:"seed"`
	// Traffic is the evolved traffic regime (cumulative scale and phase
	// drifts applied to the genesis configuration).
	Traffic netflow.Config `json:"traffic"`
	// Econ is the evolved Section 5 price vector.
	Econ econ.Params `json:"econ"`
}

// encodeTick renders the tick section payload.
func encodeTick(ts *TickState) []byte {
	// Marshal of a plain struct cannot fail.
	b, _ := json.Marshal(ts)
	return b
}

// decodeTick parses the tick section payload.
func decodeTick(payload []byte) (*TickState, error) {
	ts := &TickState{}
	if err := json.Unmarshal(payload, ts); err != nil {
		return nil, fmt.Errorf("%w: tick section: %v", ErrCorrupt, err)
	}
	return ts, nil
}
