#include "fleet/collection.hpp"

namespace symfail::fleet {

transport::IngestResult CollectionServer::ingestFrame(std::string_view bytes) {
    auto result = reassembler_.ingest(bytes);
    if (result.ack && observer_ != nullptr) {
        observer_->onFrameAccepted(result);
    }
    return result;
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
