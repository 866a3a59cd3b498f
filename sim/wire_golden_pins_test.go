package sim

// pinnedConversions maps each case of TestConvertedSchedulesEncodeAsBefore
// that is accepted to the SHA-256 of the binary GOAL encoding of what it
// converts to; a case not listed is rejected. The nsys cases after
// "nsys/zero-gpus" were recorded at commit df4c324, the parent of the
// in-place nsys record scanner; every other case at commit 315b2a9, the
// parent of the commit that replaced the bufio.Scanner / strings.Fields
// trace parsers and the log-only goal.Builder, but for the five cases
// at the end, recorded at commit 6b3bf46, the parent of the commit that
// removed the builder's spill log. Three cases have moved on purpose
// since they were recorded; they are noted where they were.
var pinnedConversions = map[string]string{
	"bench/llm":                         "e69645122b4f182cc2ff3b8828e1b7c76e2891e4b38b30e11086937b434be33e",
	"bench/hpcapps":                     "cb99ab2fae34855e01efa1d7197cf58adac7eeec86a7593b67769731892086a2",
	"bench/oltp":                        "1b1cec590e4ca3a0246b34a0aea4c033f7333cb02e06cf8f60992f55bc40e3d8",
	"fixture/nsys-1":                    "659b31c31b2199aa8991b5c86bb86afdd334f4e3a57f04aa3fde3029b760c4b8",
	"fixture/nsys-2":                    "568f9450e3cb08715beb870cbbbcaa527f9a62e3262868ca771aceb913b025e4",
	"fixture/mpi-1":                     "78126276a581e4bbeed38d116a79d92a4342682e65bf83b980c38e0fd1f9fb8f",
	"fixture/mpi-2":                     "ad0bc2fe00bfc47406eaa9373dbf9a90372e784c5061f11878cbe20e12c99de2",
	"fixture/spc-1":                     "4ff066cef10be1c3e32f8f20f0739027b1dd66a091152cc0c1fa8d32851301ae",
	"fixture/spc-2":                     "ca88bd8e022338dcfef469d513d5e77e29988ef00d6206fc9f9250374e411630",
	"fixture/chakra-1":                  "e58c22783e321b2ac5f7a2f5d3f5b7309fe504717dbc9229317381f397548b97",
	"fixture/chakra-2":                  "920d30dd9ade75a1d2d6ef584c7208c4bec0d0eaffb02fd52562c38059f9428a",
	"nsys/minimal":                      "64f9930b0560ba1647a163d21b5bd89b6ec36ce89bfc08d1b8ce9358a14a3272",
	"nsys/header-only":                  "9dc6e519d7e1e8129a4d196092629f0020a3bbe058f147538c95a03169832f9b",
	"nsys/crlf-blank-indent":            "64f9930b0560ba1647a163d21b5bd89b6ec36ce89bfc08d1b8ce9358a14a3272",
	"nsys/two-records-one-line":         "8bd3ce47980ed2888be21af37e99f653b602da9d4cf043e8978cfc91ebfa4bfa",
	"nsys/record-over-two-lines":        "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/no-final-newline":             "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/missing-optional":             "127ba45f7271660a93f58a5c740536ccdc83c9946df68f12663a8f5375b28d1a",
	"nsys/uppercase-keys":               "b80e68e217d96bdba1619aea2b5c77696b8fd11ab753c720ce84871b50948b07",
	"nsys/escaped-strings":              "8bd3ce47980ed2888be21af37e99f653b602da9d4cf043e8978cfc91ebfa4bfa",
	"nsys/null-fields":                  "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/duplicate-key-last-wins":      "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/null-after-value-keeps-it":    "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/unknown-field":                "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/invalid-utf8-name":            "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/send-recv":                    "2cbd77c83d9839fdb0b5f6e0ce11fb2a7cfee864df9e98c57d080e2737f1fd2e",
	"nsys/escaped-key":                  "06ed9816e4bc159feec6eca49a94524016e502c93ed2538e7da79dea5fd4ecb9",
	"nsys/unicode-folded-keys":          "127ba45f7271660a93f58a5c740536ccdc83c9946df68f12663a8f5375b28d1a",
	"nsys/nothing-between-values":       "64f9930b0560ba1647a163d21b5bd89b6ec36ce89bfc08d1b8ce9358a14a3272",
	"nsys/negative-zero-int":            "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/int64-max":                    "1ae0f773dafe2a868265b063f1561649799720965b7e9e9eb15a1e58c9e50c17",
	"nsys/int64-min":                    "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	"nsys/unknown-field-at-depth-limit": "0487e635fb03c0e4ce13b140c8f0013548aaa9128569a981b5a64dcb97519fd0",
	// Rejected since the collective-agreement check; df4c324 accepted
	// each, simulating the first member's record (and clamping the
	// out-of-range root to 0):
	//   nsys/collective-bytes-disagree    8bd3ce47980ed2888be21af37e99f653b602da9d4cf043e8978cfc91ebfa4bfa
	//   nsys/broadcast-roots-disagree     6c1deb06c17452676c21c54bca84b8576233204fe288594bd689c40bea6e1545
	//   nsys/broadcast-root-outside-comm  6c1deb06c17452676c21c54bca84b8576233204fe288594bd689c40bea6e1545
	"mpi/minimal":                       "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/crlf-blank-comment-indent":     "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/unicode-space-separators":      "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/no-final-newline":              "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/unterminated-last-block":       "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/rank-in-two-blocks":            "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/blocks-out-of-order":           "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/header-twice-resets":           "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/close-with-trailing-words":     "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/rank-plus-sign":                "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/missing-tag":                   "144490a40795e3be3b802b638110272556aeeb6da1307436260611b271714957",
	"mpi/bytes-plus-sign":               "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/duplicate-attribute-last-wins": "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/src-on-a-send":                 "5757bbc7162dad31386ebbbd2d6c5473245a0fa10b6363ed07bb9609208c1d8a",
	"mpi/nonblocking-and-wait":          "dde19000cf2198ab02e83f5b328278b4fe0dc2f437099a10feaf4fdd8fe4a183",
	"mpi/rooted-collectives":            "9b502506438f32bdf44dc54d6762ad41a547e364c4ae4f19bd96e8e77f6ee224",
	"spc/minimal":                       "3bf028d335354fd8c41f79560f96acce084904390b1a2aca978e7e46550fe279",
	"spc/lowercase-opcodes":             "3bf028d335354fd8c41f79560f96acce084904390b1a2aca978e7e46550fe279",
	"spc/crlf-blank-comment":            "3bf028d335354fd8c41f79560f96acce084904390b1a2aca978e7e46550fe279",
	"spc/spaces-around-fields":          "cf61386bfb591fa52dee914d6d03d02bcaee534ea76cc1299a8aac5afb38f8e0",
	"spc/unicode-space-around-fields":   "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/no-final-newline":              "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/extra-fields-ignored":          "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/trailing-comma":                "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/empty":                         "51f2154a84c14e58565c40f11381336b41cd3e06b0a77f8ac6089d5e566f3abd",
	"spc/comment-only":                  "51f2154a84c14e58565c40f11381336b41cd3e06b0a77f8ac6089d5e566f3abd",
	"spc/indented-comment":              "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/plus-sign-int":                 "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/exponent-timestamp":            "a96eda86056a14d4cfb0c57170a59e650dda74996f88c77976984feeb909bafb",
	"spc/hex-float-timestamp":           "35402576563d726659023a2f076442289cde74f770057f359b031bb713e9d915",
	"spc/many-asus-and-gaps":            "373d62f22569ee3fe7e64eaaa93433867ffab5850433d052d9278e2c1b2cd843",
	"chakra/minimal":                    "f8d511d82fa1db61c115e29c60a1fec31ef8cca22379d5cc00389064d9dba117",
	"chakra/header-only":                "ae31fde0b8583d99e62119b91384e383adab15bc3f79ab9cb822fc8a4c14dcdb",
	"chakra/crlf-blank":                 "f8d511d82fa1db61c115e29c60a1fec31ef8cca22379d5cc00389064d9dba117",
	"chakra/rank-twice-last-wins":       "f8d511d82fa1db61c115e29c60a1fec31ef8cca22379d5cc00389064d9dba117",
	"chakra/unknown-field":              "f8d511d82fa1db61c115e29c60a1fec31ef8cca22379d5cc00389064d9dba117",
	"chakra/subgroups-and-data-deps":    "9f185d04a663c291e9b91fd766a53398321740ebc164d93be4f41e012ac8d01f",
	"goal/deps-before-labels":           "eac9f1aced1d362091eb0c01ecad8599d063686a9649bcb81b93c5d26d804b2f",
	"goal/older-op-after-newer":         "e71b076384deb7de6e358a78deaae571a42be7bb0158aeacbaa4e59bf9696600",
	"goal/irequires-interleaved":        "3a0ced5be75eec4f1139945fc5e2e81b10056aceb7e39042a0ce006001987b63",
	"goal/rank-block-twice":             "99ef61c2cacdda34a0b0fbda1707f33c1ceb29d035eeaf38ff59b86353132576",
}
