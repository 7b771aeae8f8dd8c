#include "runner/framed_file.hpp"

#include <cstring>
#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

#include "common/hash.hpp"
#include "common/wire.hpp"

namespace dol::runner
{

namespace
{

/** Bytes of @p file past @p offset; 0 when the file is shorter. */
std::uint64_t
bytesAfter(std::FILE *file, std::uint64_t offset)
{
    struct stat st;
    if (fstat(fileno(file), &st) != 0 ||
        static_cast<std::uint64_t>(st.st_size) < offset)
        return 0;
    return static_cast<std::uint64_t>(st.st_size) - offset;
}

} // namespace

bool
FramedWriter::create(const std::string &path, const char (&magic)[8],
                     std::string *error)
{
    std::lock_guard lock(_mutex);
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
    _file = std::fopen(path.c_str(), "wb");
    if (!_file) {
        if (error)
            *error = "cannot create " + path;
        return false;
    }
    if (std::fwrite(magic, 1, kFrameMagicBytes, _file) !=
        kFrameMagicBytes) {
        std::fclose(_file);
        _file = nullptr;
        if (error)
            *error = "short write to " + path;
        return false;
    }
    return true;
}

bool
FramedWriter::openAppend(const std::string &path,
                         std::uint64_t good_bytes, std::string *error)
{
    std::lock_guard lock(_mutex);
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
    std::error_code ec;
    std::filesystem::resize_file(path, good_bytes, ec);
    if (ec) {
        if (error)
            *error = "cannot truncate " + path + ": " + ec.message();
        return false;
    }
    _file = std::fopen(path.c_str(), "ab");
    if (!_file) {
        if (error)
            *error = "cannot reopen " + path;
        return false;
    }
    return true;
}

bool
FramedWriter::appendRecord(std::uint8_t type,
                           const std::string &payload)
{
    std::lock_guard lock(_mutex);
    if (!_file)
        return false;
    std::string envelope;
    envelope.push_back(static_cast<char>(type));
    wire::putU32(envelope, static_cast<std::uint32_t>(payload.size()));
    wire::putU64(envelope, fnv64(payload.data(), payload.size()));
    if (std::fwrite(envelope.data(), 1, envelope.size(), _file) !=
            envelope.size() ||
        std::fwrite(payload.data(), 1, payload.size(), _file) !=
            payload.size()) {
        return false;
    }
    // The fsync is the crash-safety point: once append returns, a
    // SIGKILL cannot lose this record.
    if (std::fflush(_file) != 0)
        return false;
    return fsync(fileno(_file)) == 0;
}

void
FramedWriter::close()
{
    std::lock_guard lock(_mutex);
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
}

bool
FramedReader::open(const std::string &path, const char (&magic)[8])
{
    close();
    _fileExists = false;
    _tornTail = false;
    _goodBytes = 0;

    _file = std::fopen(path.c_str(), "rb");
    if (!_file)
        return false;
    _fileExists = true;

    char header[kFrameMagicBytes];
    if (std::fread(header, 1, sizeof header, _file) != sizeof header ||
        std::memcmp(header, magic, sizeof header) != 0) {
        std::fclose(_file);
        _file = nullptr;
        return false;
    }
    _goodBytes = kFrameMagicBytes;
    return true;
}

bool
FramedReader::next(Record &out)
{
    if (!_file)
        return false;

    unsigned char envelope[kFrameEnvelopeBytes];
    const std::size_t got =
        std::fread(envelope, 1, sizeof envelope, _file);
    if (got == 0)
        return false; // clean end of file
    if (got != sizeof envelope) {
        _tornTail = true;
        return false;
    }
    const std::uint32_t length = wire::loadU32(envelope + 1);
    const std::uint64_t checksum = wire::loadU64(envelope + 5);

    // A length reaching past the end of the file is a torn or corrupt
    // envelope. Reject it before allocating: one flipped high byte
    // would otherwise zero-fill up to 4 GiB for a payload that is not
    // there.
    if (length > bytesAfter(_file, _goodBytes + kFrameEnvelopeBytes)) {
        _tornTail = true;
        return false;
    }
    std::string payload(length, '\0');
    if (length > 0 &&
        std::fread(payload.data(), 1, length, _file) != length) {
        _tornTail = true;
        return false;
    }
    if (fnv64(payload.data(), payload.size()) != checksum) {
        _tornTail = true;
        return false;
    }

    out.type = envelope[0];
    out.payload = std::move(payload);
    _goodBytes += kFrameEnvelopeBytes + length;
    return true;
}

void
FramedReader::close()
{
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
}

} // namespace dol::runner
