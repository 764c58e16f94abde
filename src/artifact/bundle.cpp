#include "artifact/bundle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "artifact/model_codec.hpp"
#include "core/contracts.hpp"

namespace vmincqr::artifact {

std::vector<std::uint8_t> encode_bundle(const VminBundle& bundle) {
  if (!bundle.predictor) {
    throw std::invalid_argument("encode_bundle: null predictor");
  }
  const auto* cqr = dynamic_cast<const conformal::ConformalizedQuantileRegressor*>(
      bundle.predictor.get());
  if (cqr == nullptr) {
    throw ArtifactError("unsupported predictor type: " +
                        bundle.predictor->name() + " (PRED holds a CQR model)");
  }
  Writer writer;

  writer.begin_chunk(ChunkKind::kMeta);
  writer.put_f64(bundle.scenario.read_point_hours);
  writer.put_f64(bundle.scenario.temperature_c);
  writer.put_u8(bundle.scenario.feature_set);
  writer.put_f64(bundle.scenario.monitor_horizon_hours);
  writer.put_str(bundle.label);
  writer.end_chunk();

  writer.begin_chunk(ChunkKind::kColumns);
  writer.put_index_vec(bundle.dataset_columns);
  writer.put_index_vec(bundle.selected_features);
  writer.end_chunk();

  if (bundle.has_input_scaler) {
    writer.begin_chunk(ChunkKind::kInputScaler);
    writer.put_vec(bundle.input_scaler.means);
    writer.put_vec(bundle.input_scaler.scales);
    writer.end_chunk();
  }

  writer.begin_chunk(ChunkKind::kPredictor);
  encode_cqr(writer, *cqr);
  writer.end_chunk();

  return writer.finish();
}

VminBundle decode_bundle(const std::vector<std::uint8_t>& bytes) {
  Reader reader = Reader::open(bytes);
  VminBundle bundle;

  Reader meta = reader.expect_chunk(ChunkKind::kMeta);
  bundle.scenario.read_point_hours = meta.get_f64();
  bundle.scenario.temperature_c = meta.get_f64();
  bundle.scenario.feature_set = meta.get_u8();
  bundle.scenario.monitor_horizon_hours = meta.get_f64();
  bundle.label = meta.get_str();
  meta.expect_end(ChunkKind::kMeta);

  Reader columns = reader.expect_chunk(ChunkKind::kColumns);
  bundle.dataset_columns = columns.get_index_vec();
  bundle.selected_features = columns.get_index_vec();
  columns.expect_end(ChunkKind::kColumns);

  if (reader.at_end()) throw ArtifactError("bundle missing PRED chunk");
  Reader::Chunk chunk = reader.next_chunk();
  if (chunk.kind == ChunkKind::kInputScaler) {
    bundle.input_scaler.means = chunk.payload.get_vec();
    bundle.input_scaler.scales = chunk.payload.get_vec();
    chunk.payload.expect_end(ChunkKind::kInputScaler);
    bundle.has_input_scaler = true;
    if (reader.at_end()) throw ArtifactError("bundle missing PRED chunk");
    chunk = reader.next_chunk();
  }
  if (chunk.kind != ChunkKind::kPredictor) {
    throw ArtifactError("expected chunk 'PRED', found '" +
                        chunk_kind_name(chunk.kind) + "'");
  }
  bundle.predictor = decode_cqr(chunk.payload);
  chunk.payload.expect_end(ChunkKind::kPredictor);
  if (!reader.at_end()) {
    throw ArtifactError("unexpected chunk after PRED");
  }

  for (const std::size_t selected : bundle.selected_features) {
    if (selected >= bundle.dataset_columns.size()) {
      throw ArtifactError("selected feature index " +
                          std::to_string(selected) +
                          " out of range for " +
                          std::to_string(bundle.dataset_columns.size()) +
                          " dataset columns");
    }
  }
  return bundle;
}

void save_artifact(const VminBundle& bundle, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_bundle(bundle);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw ArtifactError("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw ArtifactError("write failed for '" + path + "'");
  }
}

VminBundle load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw ArtifactError("cannot open '" + path + "' for reading");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw ArtifactError("read failed for '" + path + "'");
  }
  return decode_bundle(bytes);
}

namespace {

void render_index_list(std::ostringstream& out,
                       const std::vector<std::size_t>& values) {
  constexpr std::size_t kMaxListed = 16;
  out << "[";
  for (std::size_t i = 0; i < values.size() && i < kMaxListed; ++i) {
    if (i > 0) out << ", ";
    out << values[i];
  }
  if (values.size() > kMaxListed) {
    out << ", \"... " << values.size() - kMaxListed << " more\"";
  }
  out << "]";
}

std::string escaped(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string debug_json(const VminBundle& bundle) {
  VMINCQR_REQUIRE(bundle.predictor != nullptr,
                  "debug_json: null predictor in bundle");
  std::ostringstream out;
  out << "{\n";
  out << "  \"format_version\": " << kFormatVersion << ",\n";
  out << "  \"label\": \"" << escaped(bundle.label) << "\",\n";
  out << "  \"scenario\": {\"read_point_hours\": "
      << bundle.scenario.read_point_hours
      << ", \"temperature_c\": " << bundle.scenario.temperature_c
      << ", \"feature_set\": " << static_cast<int>(bundle.scenario.feature_set)
      << ", \"monitor_horizon_hours\": "
      << bundle.scenario.monitor_horizon_hours << "},\n";
  out << "  \"n_dataset_columns\": " << bundle.dataset_columns.size() << ",\n";
  out << "  \"dataset_columns\": ";
  render_index_list(out, bundle.dataset_columns);
  out << ",\n";
  out << "  \"selected_features\": ";
  render_index_list(out, bundle.selected_features);
  out << ",\n";
  out << "  \"has_input_scaler\": "
      << (bundle.has_input_scaler ? "true" : "false") << ",\n";
  out << "  \"predictor\": {\"name\": \"" << escaped(bundle.predictor->name())
      << "\", \"alpha\": " << bundle.predictor->alpha().value() << "}\n";
  out << "}";
  return out.str();
}

}  // namespace vmincqr::artifact
