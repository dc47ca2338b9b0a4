#include "raw_io.hpp"

#include <fstream>
#include <stdexcept>

namespace cuzc::data {

void write_f32(const std::filesystem::path& path, const zc::Tensor3f& field) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("write_f32: cannot open " + path.string());
    out.write(reinterpret_cast<const char*>(field.data().data()),
              static_cast<std::streamsize>(field.size() * sizeof(float)));
    if (!out) throw std::runtime_error("write_f32: short write to " + path.string());
    // A buffered write can "succeed" with the bytes still in userspace; the
    // destructor would swallow the flush/close error and ENOSPC would
    // report success over a truncated field. Flush and close explicitly so
    // both failures surface here.
    out.flush();
    if (!out) throw std::runtime_error("write_f32: flush failed for " + path.string());
    out.close();
    if (out.fail()) throw std::runtime_error("write_f32: close failed for " + path.string());
}

zc::FieldRef read_f32(const std::filesystem::path& path, const zc::Dims3& dims) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("read_f32: cannot open " + path.string());
    const auto size = static_cast<std::size_t>(in.tellg());
    if (size != dims.volume() * sizeof(float)) {
        throw std::runtime_error("read_f32: size mismatch for " + path.string());
    }
    in.seekg(0);
    // Stage straight into an aligned slab: the sealed ref feeds
    // requests and kernel launches without another copy.
    zc::FieldBuffer staging(dims);
    in.read(reinterpret_cast<char*>(staging.data().data()),
            static_cast<std::streamsize>(size));
    if (!in) throw std::runtime_error("read_f32: short read from " + path.string());
    return std::move(staging).seal();
}

}  // namespace cuzc::data
