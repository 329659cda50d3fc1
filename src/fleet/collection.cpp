#include "fleet/collection.hpp"

namespace symfail::fleet {

transport::IngestResult CollectionServer::ingestFrame(std::string_view bytes) {
    return reassembler_.ingest(bytes);
}

std::vector<analysis::PhoneLog> CollectionServer::collectedLogs() const {
    const auto names = reassembler_.phones();
    std::vector<analysis::PhoneLog> logs;
    logs.reserve(names.size());
    for (const auto& name : names) {
        logs.push_back(analysis::PhoneLog{name, reassembler_.reconstruct(name),
                                          reassembler_.coverage(name)});
    }
    return logs;
}

}  // namespace symfail::fleet
