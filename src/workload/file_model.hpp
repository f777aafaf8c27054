// File population model calibrated to §5.3 of the paper:
//  - 90% of files are smaller than 1MB (Fig. 4b inner plot);
//  - per-extension size distributions are very disparate (Fig. 4b):
//    compressed/media files are large, code/doc files are small;
//  - by count, Code is the most numerous category while Audio/Video
//    dominates storage share (Fig. 4c);
//  - the paper classifies the 55 most popular extensions into 7 categories.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace u1 {

enum class FileCategory : std::uint8_t {
  kPics,
  kCode,
  kDocs,
  kAudioVideo,
  kBinary,
  kCompressed,
  kOther,
};
inline constexpr std::size_t kFileCategoryCount = 7;

std::string_view to_string(FileCategory c) noexcept;

/// Category of an extension ("jpg" -> kPics); kOther for unknown ones.
FileCategory category_of(std::string_view extension) noexcept;

/// A sampled file: what a desktop client is about to create/upload.
struct FileSpec {
  /// Lowercase, no dot. Views the model's static catalog, so it is
  /// valid for the program's lifetime.
  std::string_view extension;
  FileCategory category = FileCategory::kOther;
  std::uint64_t size_bytes = 0;
  /// Text-like files (code, docs) are edited repeatedly; media files are
  /// written once. Drives WAW behavior and the update share of traffic.
  double update_affinity = 0.0;
};

class FileModel {
 public:
  /// Per-extension calibration entry (public so the catalog can live in a
  /// translation-unit-local table and tests can inspect the scheme).
  struct ExtensionParams {
    std::string_view extension;
    FileCategory category;
    double popularity;       // relative file-count weight (Fig. 4c)
    double median_bytes;     // log-normal body
    double sigma;
    double max_bytes;        // physical cap
    double update_affinity;  // probability weight of WAW behavior
  };

  FileModel();

  /// Draws extension + size from the calibrated per-extension models.
  FileSpec sample(Rng& rng) const;

  /// Draws a new size for an *update* of a file: same extension, size
  /// perturbed a little (metadata edits barely change file size).
  std::uint64_t sample_update_size(const FileSpec& original, Rng& rng) const;

  /// The extensions the model knows (for tests and Fig. 4b).
  std::span<const std::string_view> known_extensions() const noexcept;

 private:
  static std::span<const ExtensionParams> catalog() noexcept;

  WeightedDiscrete popularity_;
};

}  // namespace u1
