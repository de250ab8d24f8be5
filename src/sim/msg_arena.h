// Slab arena for in-flight message payloads.
//
// Every Network transmission parks its payload here: payloads are
// placement-constructed into bump-pointer slabs and handed around as raw
// Slot pointers with an intrusive reference count — one count per scheduled
// delivery, so a broadcast fan-out shares one immutable payload.  The last
// delivery (or drop) of a payload destroys it; a slab whose payloads are all
// dead is recycled wholesale (epoch-style: no per-slot free list, the bump
// pointer simply rewinds when the slab's live count reaches zero).  In the
// steady state of a run, allocation is a pointer bump and reclamation is a
// decrement — the heap is only touched when the in-flight high-water mark
// grows past all existing slabs.
//
// Not thread-safe by design: an arena belongs to one Network, which is
// single-threaded per trial (parallel trial runners hold one Network — and
// so one arena — per worker).
#ifndef ELINK_SIM_MSG_ARENA_H_
#define ELINK_SIM_MSG_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace elink {

/// \brief Bump-pointer slab allocator for refcounted immutable messages.
class MessageArena {
 public:
  /// One arena-resident payload.  `msg` is immutable after Create; `refs`
  /// counts scheduled deliveries plus the creator's transient reference.
  /// `msg_id` is the causal-trace message id (0 when no observer is
  /// attached); the Network stamps it after Create so every delivery of a
  /// shared payload reports the same id.
  struct Slot {
    Message msg;
    uint32_t refs;
    uint32_t slab;
    uint64_t msg_id;
  };

  MessageArena() = default;
  MessageArena(const MessageArena&) = delete;
  MessageArena& operator=(const MessageArena&) = delete;

  /// Destroys any payloads still in flight (e.g. events pending in a queue
  /// that was torn down mid-run).
  ~MessageArena();

  /// Moves `msg` into the arena; the returned slot starts with one
  /// reference owned by the caller.
  Slot* Create(Message&& msg);

  /// Adds a reference (one per additionally scheduled delivery).
  static void AddRef(Slot* slot) { ++slot->refs; }

  /// Drops one reference; the last release destroys the payload and, when
  /// it was its slab's final live payload, rewinds the slab for reuse.
  void Release(Slot* slot);

  /// Live payloads across all slabs.
  size_t live() const { return live_; }
  /// Slabs ever allocated from the heap.
  size_t slabs_allocated() const { return slabs_.size(); }
  /// Times a drained slab was rewound and handed back into bump service.
  uint64_t slab_recycles() const { return slab_recycles_; }

  /// Payload capacity of one slab.
  static constexpr size_t kSlotsPerSlab = 256;

 private:
  struct Slab {
    // Raw storage: slots are placement-constructed on Create and destroyed
    // on final Release (or by ~MessageArena for in-flight leftovers).
    std::unique_ptr<unsigned char[]> storage;
    uint32_t bump = 0;  // Slots handed out since the last rewind.
    uint32_t live = 0;  // Slots not yet fully released.
  };

  Slot* SlabSlot(Slab& slab, uint32_t i) {
    return reinterpret_cast<Slot*>(slab.storage.get() + i * sizeof(Slot));
  }

  /// Makes `active_` a slab with spare capacity (recycling a drained slab
  /// before allocating a fresh one).
  void EnsureActiveSlab();

  std::vector<Slab> slabs_;
  // One byte per slot across all slabs: 1 while the slot holds a constructed
  // payload.  Only the destructor reads it (to tear down in-flight
  // leftovers); Create/Release keep it current with one byte store each.
  std::vector<uint8_t> live_mask_;
  std::vector<uint32_t> drained_;  // Fully-released slabs awaiting reuse.
  size_t active_ = 0;
  size_t live_ = 0;
  uint64_t slab_recycles_ = 0;
};

}  // namespace elink

#endif  // ELINK_SIM_MSG_ARENA_H_
