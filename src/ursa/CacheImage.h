//===- ursa/CacheImage.h - Crash-safe measurement-cache images --*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disk persistence for MeasurementCache: the `ursa.cache_image.v1`
/// snapshot+journal format that lets a killed compile server restart warm.
///
/// A measured state is pure derived data — everything in it is a function
/// of (DAG, machine model, measure options) — so the image stores the
/// *inputs*: the trace and edge list of each cached DAG, keyed by its
/// dagFingerprint. On load the states are rebuilt; re-deriving is O(n^2)
/// per entry but happens once at startup, off the request path: a
/// restarted server never recomputes cold *per request*.
///
/// On-disk layout (one snapshot + one journal per machine key):
///
///   file    := magic "URSACIM1" , record*
///   record  := u32be payload_len , payload , u32be crc32(payload)
///
/// The first record is a header (format version, measure-option knobs,
/// machine key); every later record is one cache entry. The snapshot is
/// written to a temp file, fsynced, and renamed into place; the journal
/// is appended to and flushed after every entry, then truncated after
/// each successful snapshot. A `kill -9` at any point loses at most the
/// entry being written: a torn tail record fails its length or CRC check
/// and loading stops cleanly there.
///
/// Loading is tolerant by contract: a corrupt record, a stale header
/// (wrong version / machine key / measure options), or an entry whose
/// rebuilt DAG fails verification or fingerprint recomputation is skipped
/// with a warning Diag — never a crash, never a poisoned cache.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_URSA_CACHEIMAGE_H
#define URSA_URSA_CACHEIMAGE_H

#include "support/Status.h"
#include "ursa/MeasureCache.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace ursa {

class DependenceDAG;

/// CRC-32 (IEEE 802.3 polynomial) of \p Len bytes at \p Data. Guards
/// every cache-image record; also reusable by tests to build deliberately
/// valid-or-corrupt records.
uint32_t crc32(const void *Data, size_t Len);

/// Serializes one DAG (trace + edges) as a cache-image entry payload for
/// fingerprint \p Fp. Exposed for tests; production goes through
/// CachePersister.
std::string encodeCacheEntry(uint64_t Fp, const DependenceDAG &D);

/// Decodes an entry payload back into its fingerprint and DAG. Fails
/// (Status) on any structural nonsense: truncated payload, unknown
/// opcode, out-of-range vreg/symbol/node references, bad edge kind.
StatusOr<std::unique_ptr<DependenceDAG>> decodeCacheEntry(
    const std::string &Payload, uint64_t &Fp);

/// Persists one MeasurementCache to `<dir>/<sanitized key>.ursacache`
/// (snapshot) and `.journal` (append log). One instance per machine key;
/// all methods are thread-safe.
class CachePersister {
public:
  /// \p MachineKey identifies the machine model the cache is valid for
  /// (MachineSpec::key() at the service layer); it is embedded in the
  /// image header so a cache can never warm a differently-shaped machine.
  CachePersister(std::string Dir, std::string MachineKey, MeasureOptions MO);
  ~CachePersister();

  CachePersister(const CachePersister &) = delete;
  CachePersister &operator=(const CachePersister &) = delete;

  /// Reads just the machine key out of an image or journal file's header
  /// record (magic and CRC checked; entries untouched). Lets a starting
  /// server discover which machines a cache directory holds images for —
  /// and so warm them eagerly, off the request path — without knowing any
  /// key in advance. Fails on files that are not usable images.
  static StatusOr<std::string> readImageKey(const std::string &Path);

  /// Reads snapshot then journal, rebuilding each valid entry into
  /// \p Cache (deduplicated by fingerprint; entries also seed the next
  /// snapshot). Skipped entries and rejected files are reported as
  /// Warning diags on the returned Status; the Status itself is only an
  /// error for environmental failures (unreadable directory). Safe to
  /// call on a missing or empty directory — that is simply a cold start.
  Status load(MeasurementCache &Cache, const MachineModel &M);

  /// Records the DAG behind freshly built fingerprint \p Fp and appends
  /// it to the journal (flushed, so a crash right after still replays
  /// it). Duplicate fingerprints are ignored. Wire this to
  /// MeasurementCache::setBuildObserver.
  void append(uint64_t Fp, const DependenceDAG &D);

  /// Writes all recorded entries as a fresh snapshot (temp file + fsync +
  /// atomic rename) and truncates the journal.
  Status snapshot();

  /// Entries currently recorded (loaded + appended).
  unsigned entries() const;

  /// Entries successfully rebuilt by the last load().
  unsigned loadedEntries() const { return Loaded; }

  /// Journal appends since the last snapshot (drives periodic snapshots).
  unsigned dirtyEntries() const;

  const std::string &snapshotPath() const { return SnapPath; }
  const std::string &journalPath() const { return JourPath; }

private:
  std::string headerPayload() const;
  Status snapshotLocked();
  /// Reads records of \p Path; header mismatches reject the whole file,
  /// bad records stop the scan. Decoded entries land in Out (deduped).
  void readImageFile(const std::string &Path,
                     std::map<uint64_t, std::string> &Out, Status &Warnings);

  std::string Dir;
  std::string Key;
  MeasureOptions MO;
  std::string SnapPath;
  std::string JourPath;

  mutable std::mutex Mu;
  std::map<uint64_t, std::string> Payloads; ///< fp -> entry payload
  std::FILE *Journal = nullptr;
  unsigned Dirty = 0;  ///< journal records since last snapshot
  unsigned Loaded = 0; ///< entries rebuilt by the last load()
};

} // namespace ursa

#endif // URSA_URSA_CACHEIMAGE_H
