#ifndef CDES_COMMON_FILE_H_
#define CDES_COMMON_FILE_H_

#include <string>

#include "common/status.h"

namespace cdes {

/// The whole of the regular file at `path`, read in binary mode with one
/// read sized to the file. NotFound when `path` names no regular file or
/// cannot be read.
Result<std::string> ReadFile(const std::string& path);

}  // namespace cdes

#endif  // CDES_COMMON_FILE_H_
