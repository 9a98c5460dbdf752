#include "common/file.h"

#include <filesystem>
#include <fstream>

#include "common/strings.h"

namespace cdes {

Result<std::string> ReadFile(const std::string& path) {
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  std::string text(ec ? 0 : size, '\0');
  if (ec || !in.read(text.data(), static_cast<std::streamsize>(size))) {
    return Status::NotFound(StrCat("cannot read '", path, "'"));
  }
  return text;
}

}  // namespace cdes
