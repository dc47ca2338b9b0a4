#include "pipeline.hpp"

#include <cassert>
#include <stdexcept>

#include "sz/sz_compressor.hpp"

namespace cuzc::cuzc {

namespace {

PipelineResult assess_pair(vgpu::Device& dev, const zc::Tensor3f& orig, const zc::Field& dec,
                           const zc::MetricsConfig& cfg, zc::CompressionStats stats,
                           double bound) {
    PipelineResult out;
    out.assessment = assess(dev, orig, dec.view(), cfg);
    out.compression = stats;
    out.effective_error_bound = bound;
    return out;
}

}  // namespace

PipelineResult compress_and_assess(vgpu::Device& dev, const zc::Tensor3f& orig,
                                   double rel_error_bound, const zc::MetricsConfig& cfg) {
    sz::SzConfig scfg;
    scfg.use_rel_bound = true;
    scfg.rel_error_bound = rel_error_bound;

    zc::CompressionStats stats;
    stats.raw_bytes = orig.size() * sizeof(float);
    const zc::Stopwatch comp_watch;
    const sz::SzCompressed comp = sz::compress(orig, scfg);
    stats.compress_seconds = comp_watch.seconds();
    stats.compressed_bytes = comp.bytes.size();

    const zc::Stopwatch decomp_watch;
    const zc::Field dec = sz::decompress(comp.bytes);
    stats.decompress_seconds = decomp_watch.seconds();

    return assess_pair(dev, orig, dec, cfg, stats, comp.effective_error_bound);
}

PipelineResult assess_compressed(vgpu::Device& dev, const zc::Tensor3f& orig,
                                 std::span<const std::uint8_t> sz_stream,
                                 const zc::MetricsConfig& cfg) {
    zc::CompressionStats stats;
    stats.raw_bytes = orig.size() * sizeof(float);
    stats.compressed_bytes = sz_stream.size();
    const zc::Stopwatch decomp_watch;
    const zc::Field dec = sz::decompress(sz_stream);
    stats.decompress_seconds = decomp_watch.seconds();
    if (dec.dims() != orig.dims()) {
        throw std::invalid_argument("assess_compressed: stream shape mismatch");
    }
    return assess_pair(dev, orig, dec, cfg, stats, 0.0);
}

}  // namespace cuzc::cuzc
