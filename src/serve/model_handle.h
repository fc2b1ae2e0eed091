// librock — serve/model_handle.h
//
// The serve-side view of a clustered model. A ModelHandle loads and
// validates a model bundle (core/model_bundle.h) exactly once, reassembles
// the §4.6 labeler from its parts, and turns query text into
// transactions against the bundle's dictionary. Everything in the handle is
// immutable after Load, so any number of server workers can share one
// handle without locks.
//
// Query text is one whitespace-separated item list. With a dictionary in
// the bundle, tokens are item names; names the model never saw are mapped
// (per query) to distinct ids beyond the dictionary — they can never match
// a labeling-set item, but they still count toward |T|, exactly as a
// never-sampled item id does in the batch pipeline. Without a dictionary
// (bundles built straight from a store, which persists ids only), tokens
// are the numeric item ids themselves.

#ifndef ROCK_SERVE_MODEL_HANDLE_H_
#define ROCK_SERVE_MODEL_HANDLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/labeling.h"
#include "core/model_bundle.h"
#include "data/transaction.h"

namespace rock {

/// An immutable, validated, query-ready model.
class ModelHandle {
 public:
  /// Loads the bundle at `path` (CRC-verified; see LoadModelBundle) and
  /// reassembles the labeler. A bundle that parses but carries implausible
  /// parameters is refused — a damaged model is never served.
  static Result<ModelHandle> Load(const std::string& path);

  /// Builds a handle from an in-memory bundle (tests; `rock build` piping
  /// straight into a server).
  static Result<ModelHandle> FromBundle(ModelBundle bundle);

  /// The reassembled §4.6 labeler. Assign() on it is bit-identical to the
  /// batch pipeline's labeling of the same transaction.
  const TransactionLabeler& labeler() const { return labeler_; }

  /// Identity of the build run this model came from.
  const CheckpointFingerprint& fingerprint() const { return fingerprint_; }

  /// Build-time assignment profile carried by version-2 bundles (empty for
  /// version-1 bundles). The drift detector's baseline.
  const ModelProfile& profile() const { return profile_; }

  size_t num_clusters() const { return labeler_.num_clusters(); }

  /// True when the bundle carries item names (name-mode queries).
  bool has_dictionary() const { return !name_to_id_.empty(); }

  /// Parses one query line into a transaction. Tokens are separated by
  /// spaces/tabs; an empty token list is InvalidArgument (an empty
  /// transaction has no neighbors and callers should not submit one by
  /// accident). Id-mode tokens that are not valid u32 ids are
  /// InvalidArgument.
  Result<Transaction> ParseQuery(std::string_view line) const;

 private:
  ModelHandle(TransactionLabeler labeler, CheckpointFingerprint fingerprint)
      : labeler_(std::move(labeler)), fingerprint_(fingerprint) {}

  TransactionLabeler labeler_;
  CheckpointFingerprint fingerprint_;
  ModelProfile profile_;
  std::unordered_map<std::string, ItemId> name_to_id_;
  /// First id past the dictionary — per-query unknown names map to
  /// unknown_base_ + k so they stay distinct from every known item.
  ItemId unknown_base_ = 0;
};

}  // namespace rock

#endif  // ROCK_SERVE_MODEL_HANDLE_H_
