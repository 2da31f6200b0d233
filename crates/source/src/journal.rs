//! Length-prefixed UTF-8 journal codec.
//!
//! A journal is a flat sequence of frames, each `[u32 LE byte-length]`
//! followed by that many UTF-8 bytes. Concatenating two valid journals
//! yields a valid journal, which is what lets drained increments ride the
//! engine's delta log and replay by simple byte append.

use crate::SourceError;

/// Append `texts` to `out` as journal frames.
pub(crate) fn encode_into<'a>(out: &mut Vec<u8>, texts: impl IntoIterator<Item = &'a str>) {
    for text in texts {
        let bytes = text.as_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
}

/// Decode a journal back into its texts.
pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<String>, SourceError> {
    let mut texts = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let Some(header) = bytes.get(at..at + 4) else {
            return Err(SourceError::CorruptJournal {
                detail: format!("truncated frame header at byte {at}"),
            });
        };
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(header);
        let len = u32::from_le_bytes(len_bytes) as usize;
        at += 4;
        let Some(body) = bytes.get(at..at + len) else {
            return Err(SourceError::CorruptJournal {
                detail: format!("frame at byte {} claims {len} bytes past end", at - 4),
            });
        };
        let text = std::str::from_utf8(body).map_err(|_| SourceError::CorruptJournal {
            detail: format!("frame at byte {} is not UTF-8", at - 4),
        })?;
        texts.push(text.to_string());
        at += len;
    }
    Ok(texts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(texts: &[String]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out, texts.iter().map(String::as_str));
        out
    }

    #[test]
    fn round_trips() {
        let texts = vec!["".to_string(), "hello world".to_string(), "héllo ⟨x⟩".to_string()];
        assert_eq!(decode(&encode(&texts)).unwrap(), texts);
        assert_eq!(decode(&[]).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn concatenation_is_append() {
        let a = encode(&["one".to_string()]);
        let b = encode(&["two".to_string(), "three".to_string()]);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        assert_eq!(
            decode(&joined).unwrap(),
            vec!["one".to_string(), "two".to_string(), "three".to_string()]
        );
    }

    #[test]
    fn truncation_and_bad_utf8_are_typed_errors() {
        let full = encode(&["hello".to_string()]);
        for cut in 1..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode(&bad), Err(SourceError::CorruptJournal { .. })));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.push(b'x');
        assert!(decode(&bad).is_err());
    }
}
