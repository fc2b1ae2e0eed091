#include "core/model_bundle.h"

#include <cmath>

namespace rock {

namespace {

// Version 2 appended the build-time profile (drift baseline). Version-1
// files still load, with an empty profile.
constexpr FrameFormat kModelFormat{
    .magic = 0x524f434b4d4f444cULL,  // "ROCKMODL"
    .min_version = 1,
    .version = 2,
    .save_site = "model.save",
    .load_site = "model.load",
    .noun = "model bundle",
};

constexpr char kReaderContext[] = "model-bundle payload";

Status SerializePayload(const ModelBundle& b, ByteWriter& w) {
  ROCK_RETURN_IF_ERROR(CheckPersistCap(
      b.labeling_sets.size(), PersistCaps::kClusters, "model cluster count"));
  ROCK_RETURN_IF_ERROR(CheckPersistCap(
      b.dictionary.size(), PersistCaps::kDictEntries, "dictionary size"));
  WriteFingerprint(w, b.fingerprint);
  w.Pod(b.theta);
  w.Pod(b.f_exponent);

  w.Pod(static_cast<uint64_t>(b.labeling_sets.size()));
  for (const auto& set : b.labeling_sets) {
    ROCK_RETURN_IF_ERROR(WriteTransactionList(w, set));
  }

  w.Pod(static_cast<uint64_t>(b.dictionary.size()));
  for (const std::string& name : b.dictionary) {
    ROCK_RETURN_IF_ERROR(CheckPersistCap(
        name.size(), PersistCaps::kNameLength, "dictionary name length"));
    w.Pod(static_cast<uint32_t>(name.size()));
    if (!name.empty()) {
      w.Write(name.data(), name.size());
    }
  }

  // Version 2: the build-time profile. Written even when empty (rows = 0)
  // so the payload shape is a pure function of the version.
  const ModelProfile& profile = b.profile;
  w.Pod(profile.rows);
  w.Pod(profile.outlier_share);
  w.Pod(profile.mean_score);
  w.Pod(static_cast<uint64_t>(profile.cluster_share.size()));
  for (size_t c = 0; c < profile.cluster_share.size(); ++c) {
    w.Pod(profile.cluster_share[c]);
    w.Pod(c < profile.mean_neighbors.size() ? profile.mean_neighbors[c]
                                            : 0.0);
  }
  return Status::OK();
}

/// NaN-safe plausibility gate shared by save and load: a profile is either
/// empty or a well-formed distribution over the bundle's clusters.
bool ProfilePlausible(const ModelProfile& p, size_t num_clusters) {
  if (p.empty()) {
    return p.cluster_share.empty() && p.mean_neighbors.empty();
  }
  if (p.cluster_share.size() != num_clusters ||
      p.mean_neighbors.size() != num_clusters) {
    return false;
  }
  if (!(p.outlier_share >= 0.0 && p.outlier_share <= 1.0)) return false;
  if (!(p.mean_score >= 0.0) || !std::isfinite(p.mean_score)) return false;
  for (double s : p.cluster_share) {
    if (!(s >= 0.0 && s <= 1.0)) return false;
  }
  for (double m : p.mean_neighbors) {
    if (!(m >= 0.0) || !std::isfinite(m)) return false;
  }
  return true;
}

Status ParsePayload(ByteReader& r, uint32_t version, ModelBundle* b) {
  ROCK_RETURN_IF_ERROR(ReadFingerprint(r, &b->fingerprint));
  ROCK_RETURN_IF_ERROR(r.Pod(&b->theta));
  ROCK_RETURN_IF_ERROR(r.Pod(&b->f_exponent));
  // NaN-safe plausibility gate, as in TransactionLabeler::FromParts.
  if (!(b->theta >= 0.0 && b->theta <= 1.0) || !(b->f_exponent >= 0.0)) {
    return Status::Corruption("implausible model parameters");
  }

  uint64_t num_clusters = 0;
  ROCK_RETURN_IF_ERROR(r.Pod(&num_clusters));
  if (num_clusters > PersistCaps::kClusters || num_clusters > r.Remaining()) {
    return Status::Corruption("implausible model cluster count");
  }
  b->labeling_sets.clear();
  b->labeling_sets.resize(static_cast<size_t>(num_clusters));
  for (auto& set : b->labeling_sets) {
    ROCK_RETURN_IF_ERROR(ReadTransactionList(r, "model", &set));
  }

  uint64_t dict_size = 0;
  ROCK_RETURN_IF_ERROR(r.Pod(&dict_size));
  if (dict_size > PersistCaps::kDictEntries || dict_size > r.Remaining()) {
    return Status::Corruption("implausible model dictionary size");
  }
  b->dictionary.clear();
  b->dictionary.resize(static_cast<size_t>(dict_size));
  for (std::string& name : b->dictionary) {
    uint32_t len = 0;
    ROCK_RETURN_IF_ERROR(r.Pod(&len));
    if (len > PersistCaps::kNameLength || len > r.Remaining()) {
      return Status::Corruption("implausible model dictionary entry");
    }
    name.resize(len);
    if (len > 0) {
      ROCK_RETURN_IF_ERROR(r.Read(name.data(), len));
    }
  }

  b->profile = ModelProfile{};
  if (version >= 2) {
    ModelProfile& profile = b->profile;
    ROCK_RETURN_IF_ERROR(r.Pod(&profile.rows));
    ROCK_RETURN_IF_ERROR(r.Pod(&profile.outlier_share));
    ROCK_RETURN_IF_ERROR(r.Pod(&profile.mean_score));
    uint64_t profile_clusters = 0;
    ROCK_RETURN_IF_ERROR(r.Pod(&profile_clusters));
    if (profile_clusters > PersistCaps::kClusters ||
        profile_clusters > r.Remaining() / (2 * sizeof(double))) {
      return Status::Corruption("implausible model profile size");
    }
    profile.cluster_share.resize(static_cast<size_t>(profile_clusters));
    profile.mean_neighbors.resize(static_cast<size_t>(profile_clusters));
    for (size_t c = 0; c < profile.cluster_share.size(); ++c) {
      ROCK_RETURN_IF_ERROR(r.Pod(&profile.cluster_share[c]));
      ROCK_RETURN_IF_ERROR(r.Pod(&profile.mean_neighbors[c]));
    }
    if (!ProfilePlausible(profile, b->labeling_sets.size())) {
      return Status::Corruption("implausible model profile");
    }
  }

  if (r.Remaining() != 0) {
    return Status::Corruption("trailing bytes after model-bundle payload");
  }
  return Status::OK();
}

}  // namespace

double ModelProfile::OverallMeanNeighbors() const {
  double mass = 0.0;
  double weighted = 0.0;
  for (size_t c = 0; c < cluster_share.size(); ++c) {
    mass += cluster_share[c];
    weighted += cluster_share[c] *
                (c < mean_neighbors.size() ? mean_neighbors[c] : 0.0);
  }
  return mass > 0.0 ? weighted / mass : 0.0;
}

Status SaveModelBundle(const ModelBundle& bundle, const std::string& path) {
  // Symmetric with the load-side plausibility gate: a bundle we would
  // refuse to load must never reach disk in the first place.
  if (!(bundle.theta >= 0.0 && bundle.theta <= 1.0) ||
      !(bundle.f_exponent >= 0.0)) {
    return Status::InvalidArgument("implausible model parameters");
  }
  if (!ProfilePlausible(bundle.profile, bundle.labeling_sets.size())) {
    return Status::InvalidArgument("implausible model profile");
  }
  ByteWriter payload;
  ROCK_RETURN_IF_ERROR(SerializePayload(bundle, payload));
  return WriteFramedFile(kModelFormat, path, payload.buf);
}

Result<ModelBundle> LoadModelBundle(const std::string& path) {
  Result<FramedFile> file = ReadFramedFile(kModelFormat, path);
  if (!file.ok()) return file.status();
  ByteReader r = file->Payload(kReaderContext);
  ModelBundle bundle;
  ROCK_RETURN_IF_ERROR(ParsePayload(r, file->version, &bundle));
  return bundle;
}

}  // namespace rock
