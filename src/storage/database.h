#ifndef SEMOPT_STORAGE_DATABASE_H_
#define SEMOPT_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ast/atom.h"
#include "storage/relation.h"
#include "util/result.h"

namespace semopt {

/// What the write that publishes a materialized view's IDB stamps on
/// its generation: the view program's rules, each rendered without its
/// label, grouped (and sorted) by the predicate they derive. The keys
/// are the predicates the view maintains. A reader of that generation
/// may read a maintained predicate as a stored relation instead of
/// re-deriving it, provided its own rules for the predicate and for
/// everything the predicate reaches are these.
struct ViewManifest {
  std::map<PredicateId, std::vector<std::string>> rules;
};

/// A database instance: a set of named relations (typically the EDB; the
/// evaluation engine materializes IDB relations into a separate Database).
/// Relations are created on first reference.
///
/// Relations are held by shared_ptr so two databases can share unchanged
/// relations copy-on-write: `CloneShared` is O(#relations) pointer
/// copies, and a shared relation is deep-copied ("detached") only when a
/// mutable accessor actually reaches for it. SnapshotStore::Mutate
/// builds each new generation this way, so a write batch clones exactly
/// the relations it touches (counted by the
/// `storage.snapshot.relations_cloned` metric) while every other
/// relation — and its already-built indexes — stays pointer-identical
/// across generations.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// The relation for `pred`, creating an empty one if absent. Detaches
  /// a relation shared with another database before returning it.
  Relation& GetOrCreate(const PredicateId& pred);

  /// The relation for `pred`, or nullptr when absent. The mutable form
  /// detaches a shared relation before returning it.
  const Relation* Find(const PredicateId& pred) const;
  Relation* FindMutable(const PredicateId& pred);

  /// Inserts a fact given as a ground atom. Fails on non-ground args.
  Status AddFact(const Atom& fact);

  /// Convenience: `AddFact` on "pred(v1, ..., vn)" built from values.
  void AddTuple(std::string_view predicate, Tuple tuple);

  /// All predicates with a (possibly empty) relation.
  std::vector<PredicateId> Predicates() const;

  /// Total number of stored tuples across relations.
  size_t TotalTuples() const;

  /// Deep copy (for differential testing: evaluate two programs on the
  /// same EDB without sharing index state).
  Database Clone() const;

  /// Shallow copy-on-write copy: the new database shares every relation
  /// with this one (pointer copies only); either side deep-copies a
  /// relation the moment it mutates it. This is the snapshot-store
  /// write path — cloning a multi-gigabyte generation costs one map of
  /// pointers, not a tuple copy. Neither copy carries the view
  /// manifest: a write starts unstamped, and only a view's own write
  /// stamps it again.
  Database CloneShared() const;

  /// The manifest of the view whose write published this database, or
  /// null when the last write was not a view's.
  const std::shared_ptr<const ViewManifest>& view_manifest() const {
    return view_manifest_;
  }
  void set_view_manifest(std::shared_ptr<const ViewManifest> manifest) {
    view_manifest_ = std::move(manifest);
  }

  /// Shares every relation of `other` into this database (pointer
  /// copies, replacing same-predicate entries). This is how a
  /// materialized view's IDB is published into a write generation:
  /// O(#relations), and the CoW discipline protects both sides — if the
  /// view later maintains a shared relation, its mutable accessor
  /// detaches first, leaving the published generation frozen.
  void MergeSharedFrom(const Database& other);

  /// True if both databases contain exactly the same facts (index and
  /// insertion-order insensitive).
  bool SameFactsAs(const Database& other) const;

  /// Renders every relation on its own line, predicates sorted.
  std::string ToString() const;

 private:
  /// Deep-copies `*slot` if it is shared with another database, so the
  /// caller can hand out a mutable reference. Bumps the
  /// `storage.snapshot.relations_cloned` metric when it copies.
  static void DetachIfShared(std::shared_ptr<Relation>* slot);

  std::map<PredicateId, std::shared_ptr<Relation>> relations_;
  std::shared_ptr<const ViewManifest> view_manifest_;
};

}  // namespace semopt

#endif  // SEMOPT_STORAGE_DATABASE_H_
